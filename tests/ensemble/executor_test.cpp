// Deadline + cancellation + retry coverage for the ensemble's robust run
// executor. The hung-run scenarios use a cooperative spin that polls its
// CancelToken — the production contract — so a passed deadline releases
// the thread instead of wedging the fleet. Runs TSan-clean (registered with
// the sanitizer CI jobs).
#include "ensemble/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/check.hpp"

namespace g10::ensemble {
namespace {

using namespace std::chrono_literals;

Scenario test_scenario(std::uint64_t seed = 1) {
  Scenario s;
  s.seed = seed;
  return s;
}

RunAttempt ok_attempt(double makespan = 1.0) {
  RunAttempt a;
  a.outcome = RunOutcome::kOk;
  a.report.makespan_seconds = makespan;
  return a;
}

/// Blocks until the token fires (bounded by a generous failsafe so a broken
/// deadline fails the test instead of hanging it).
void hang_until_cancelled(const CancelToken& token) {
  const auto failsafe = std::chrono::steady_clock::now() + 30s;
  while (!token.cancelled()) {
    ASSERT_LT(std::chrono::steady_clock::now(), failsafe)
        << "deadline never fired";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(OutcomeNameTest, RoundTripsEveryOutcome) {
  for (const RunOutcome outcome :
       {RunOutcome::kOk, RunOutcome::kTimeout, RunOutcome::kRunFailed,
        RunOutcome::kAnalysisFailed, RunOutcome::kSkipped}) {
    const auto parsed = parse_outcome(outcome_name(outcome));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, outcome);
  }
  EXPECT_FALSE(parse_outcome("exploded").has_value());
}

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.backoff_initial_seconds = 0.1;
  policy.backoff_factor = 2.0;
  policy.backoff_max_seconds = 0.35;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(2), 0.1);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(3), 0.2);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(4), 0.35);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(9), 0.35);
}

TEST(RunExecutorTest, SuccessOnFirstAttempt) {
  const RunExecutor executor(
      [](const Scenario&, const CancelToken&) { return ok_attempt(2.5); },
      RetryPolicy{});
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kOk);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_DOUBLE_EQ(result.report.makespan_seconds, 2.5);
  EXPECT_TRUE(result.error.empty());
}

TEST(RunExecutorTest, ThrowingRunBecomesRunFailedAndIsRetried) {
  std::atomic<int> calls{0};
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_seconds = 0.001;
  const RunExecutor executor(
      [&](const Scenario&, const CancelToken&) -> RunAttempt {
        if (calls.fetch_add(1) < 2) throw std::runtime_error("flaky");
        return ok_attempt();
      },
      policy);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kOk);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(calls.load(), 3);
}

TEST(RunExecutorTest, ExhaustedRetriesKeepTheLastFailure) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_initial_seconds = 0.001;
  const RunExecutor executor(
      [](const Scenario&, const CancelToken&) -> RunAttempt {
        throw std::runtime_error("always broken");
      },
      policy);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kRunFailed);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.error, "always broken");
}

TEST(RunExecutorTest, AnalysisFailureIsNotRetriedByDefault) {
  std::atomic<int> calls{0};
  const RunExecutor executor(
      [&](const Scenario&, const CancelToken&) {
        ++calls;
        RunAttempt a;
        a.outcome = RunOutcome::kAnalysisFailed;
        a.error = "bad trace";
        return a;
      },
      RetryPolicy{});
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kAnalysisFailed);
  EXPECT_EQ(calls.load(), 1);
}

TEST(RunExecutorTest, StopFlagSkipsBeforeTheFirstAttempt) {
  std::atomic<bool> stop{true};
  std::atomic<int> calls{0};
  const RunExecutor executor(
      [&](const Scenario&, const CancelToken&) {
        ++calls;
        return ok_attempt();
      },
      RetryPolicy{});
  const RunResult result = executor.execute(test_scenario(), &stop);
  EXPECT_EQ(result.outcome, RunOutcome::kSkipped);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_EQ(calls.load(), 0);
}

TEST(CancelTokenTest, StopFlagCancelsButIsNotATimeout) {
  std::atomic<bool> stop{false};
  const CancelToken token(&stop, CancelToken::Clock::now() + 1h);
  EXPECT_FALSE(token.cancelled());
  stop.store(true);
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.fired());
}

TEST(CancelTokenTest, PassedDeadlineFires) {
  const CancelToken token(nullptr, CancelToken::Clock::now() - 1ms);
  EXPECT_TRUE(token.fired());
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(CancelToken().cancelled());
}

TEST(DeadlineTest, HungRunIsCancelledAndClassifiedTimeout) {
  RetryPolicy policy;
  policy.deadline_seconds = 0.05;
  policy.retry_timeout = false;
  const RunExecutor executor(
      [](const Scenario&, const CancelToken& token) {
        hang_until_cancelled(token);
        // Whatever a cancelled run reports is overridden by the deadline
        // verdict — even a claimed success.
        return ok_attempt();
      },
      policy);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kTimeout);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.error, "deadline exceeded");
  // A timed-out attempt's partial report must not leak into the aggregate.
  EXPECT_DOUBLE_EQ(result.report.makespan_seconds, 0.0);
}

TEST(DeadlineTest, TimeoutIsRetriedPerPolicyWithAFreshToken) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_seconds = 0.05;
  policy.backoff_initial_seconds = 0.001;
  std::atomic<int> calls{0};
  const RunExecutor executor(
      [&](const Scenario&, const CancelToken& token) -> RunAttempt {
        if (calls.fetch_add(1) == 0) {
          hang_until_cancelled(token);
          return ok_attempt();
        }
        // Attempt 2 gets a fresh token: the attempt-1 deadline must not
        // have poisoned it.
        EXPECT_FALSE(token.cancelled());
        return ok_attempt(7.0);
      },
      policy);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kOk);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_DOUBLE_EQ(result.report.makespan_seconds, 7.0);
}

TEST(DeadlineTest, FastRunIsNeverCancelled) {
  RetryPolicy policy;
  policy.deadline_seconds = 30.0;
  const RunExecutor executor(
      [](const Scenario&, const CancelToken& token) {
        EXPECT_FALSE(token.cancelled());
        return ok_attempt();
      },
      policy);
  for (int i = 0; i < 50; ++i) {
    const RunResult result = executor.execute(test_scenario(i));
    EXPECT_EQ(result.outcome, RunOutcome::kOk);
  }
}

TEST(DeadlineTest, HugeDeadlineNeverFires) {
  // 1e30 s does not fit steady_clock's integer nanoseconds; it must mean
  // "never", not wrap into a deadline that has already passed.
  RetryPolicy policy;
  policy.deadline_seconds = 1e30;
  const RunExecutor executor(
      [](const Scenario&, const CancelToken& token) {
        EXPECT_FALSE(token.cancelled());
        return ok_attempt();
      },
      policy);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kOk);
  EXPECT_EQ(result.attempts, 1);
}

}  // namespace
}  // namespace g10::ensemble
