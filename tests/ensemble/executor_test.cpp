// Watchdog + cancellation + retry coverage for the ensemble's robust run
// executor. The hung-run scenarios use a cooperative spin that polls its
// CancelToken — the production contract — so a fired deadline releases the
// pool slot instead of wedging the fleet. Runs TSan-clean (registered with
// the sanitizer CI jobs).
#include "ensemble/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

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
/// watchdog fails the test instead of hanging it).
void hang_until_cancelled(const CancelToken& token) {
  const auto failsafe = std::chrono::steady_clock::now() + 30s;
  while (!token.cancelled()) {
    ASSERT_LT(std::chrono::steady_clock::now(), failsafe)
        << "watchdog never fired";
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
      RetryPolicy{}, nullptr);
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
      policy, nullptr);
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
      policy, nullptr);
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
      RetryPolicy{}, nullptr);
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
      RetryPolicy{}, nullptr);
  const RunResult result = executor.execute(test_scenario(), &stop);
  EXPECT_EQ(result.outcome, RunOutcome::kSkipped);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_EQ(calls.load(), 0);
}

TEST(WatchdogTest, HungRunIsCancelledAndClassifiedTimeout) {
  Watchdog watchdog;
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
      policy, &watchdog);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kTimeout);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.error, "deadline exceeded");
  // A timed-out attempt's partial report must not leak into the aggregate.
  EXPECT_DOUBLE_EQ(result.report.makespan_seconds, 0.0);
}

TEST(WatchdogTest, TimeoutIsRetriedPerPolicyWithAFreshToken) {
  Watchdog watchdog;
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
      policy, &watchdog);
  const RunResult result = executor.execute(test_scenario());
  EXPECT_EQ(result.outcome, RunOutcome::kOk);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_DOUBLE_EQ(result.report.makespan_seconds, 7.0);
}

TEST(WatchdogTest, FastRunIsNeverCancelled) {
  Watchdog watchdog;
  RetryPolicy policy;
  policy.deadline_seconds = 30.0;
  const RunExecutor executor(
      [](const Scenario&, const CancelToken& token) {
        EXPECT_FALSE(token.cancelled());
        return ok_attempt();
      },
      policy, &watchdog);
  for (int i = 0; i < 50; ++i) {
    const RunResult result = executor.execute(test_scenario(i));
    EXPECT_EQ(result.outcome, RunOutcome::kOk);
  }
}

TEST(WatchdogTest, DisarmedGuardNeverFires) {
  Watchdog watchdog;
  auto token = std::make_shared<CancelToken>();
  {
    Watchdog::Guard guard = watchdog.arm(token, 20ms);
    guard.disarm();
  }
  std::this_thread::sleep_for(60ms);
  EXPECT_FALSE(token->cancelled());
}

TEST(WatchdogTest, GuardDestructionDisarms) {
  Watchdog watchdog;
  auto token = std::make_shared<CancelToken>();
  { const Watchdog::Guard guard = watchdog.arm(token, 20ms); }
  std::this_thread::sleep_for(60ms);
  EXPECT_FALSE(token->cancelled());
}

TEST(WatchdogTest, ManyConcurrentDeadlinesFireIndependently) {
  Watchdog watchdog;
  constexpr int kCount = 32;
  std::vector<std::shared_ptr<CancelToken>> fire;
  std::vector<std::shared_ptr<CancelToken>> hold;
  std::vector<Watchdog::Guard> guards;
  for (int i = 0; i < kCount; ++i) {
    fire.push_back(std::make_shared<CancelToken>());
    hold.push_back(std::make_shared<CancelToken>());
    guards.push_back(watchdog.arm(fire.back(), 10ms));
    guards.push_back(watchdog.arm(hold.back(), 1h));
  }
  const auto failsafe = std::chrono::steady_clock::now() + 30s;
  for (const auto& token : fire) {
    while (!token->cancelled()) {
      ASSERT_LT(std::chrono::steady_clock::now(), failsafe);
      std::this_thread::sleep_for(1ms);
    }
  }
  for (const auto& token : hold) EXPECT_FALSE(token->cancelled());
}

// The ISSUE's wedge check: a fleet of deliberately-hung runs, fanned across
// the shared ThreadPool exactly as the driver does it, must drain — every
// deadline fires, every slot is released, and the pool finishes more work
// afterwards.
TEST(WatchdogTest, HungFleetNeverWedgesTheThreadPool) {
  Watchdog watchdog;
  RetryPolicy policy;
  policy.max_attempts = 2;  // timeouts retried once, per the default policy
  policy.deadline_seconds = 0.03;
  policy.backoff_initial_seconds = 0.001;
  std::atomic<int> hung_attempts{0};
  const RunExecutor executor(
      [&](const Scenario& scenario, const CancelToken& token) -> RunAttempt {
        if (scenario.seed % 2 == 0) {
          ++hung_attempts;
          hang_until_cancelled(token);
          RunAttempt a;
          a.outcome = RunOutcome::kRunFailed;
          a.error = "hung";
          return a;
        }
        return ok_attempt();
      },
      policy, &watchdog);

  ThreadPool pool(4);
  constexpr std::size_t kRuns = 16;
  std::vector<RunResult> results(kRuns);
  pool.parallel_for(kRuns, 1, [&](std::size_t i) {
    results[i] = executor.execute(test_scenario(i));
  });

  std::size_t ok = 0;
  std::size_t timeout = 0;
  for (std::size_t i = 0; i < kRuns; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(results[i].outcome, RunOutcome::kTimeout) << i;
      EXPECT_EQ(results[i].attempts, 2) << i;
      ++timeout;
    } else {
      EXPECT_EQ(results[i].outcome, RunOutcome::kOk) << i;
      ++ok;
    }
  }
  EXPECT_EQ(ok, kRuns / 2);
  EXPECT_EQ(timeout, kRuns / 2);
  EXPECT_EQ(hung_attempts.load(), static_cast<int>(kRuns));  // 2 each

  // The pool still works: the hung fleet released every slot.
  std::atomic<std::size_t> after{0};
  pool.parallel_for(100, 1, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 100u);
}

TEST(RunExecutorTest, DeadlineWithoutWatchdogIsRejected) {
  RetryPolicy policy;
  policy.deadline_seconds = 1.0;
  EXPECT_THROW(RunExecutor([](const Scenario&, const CancelToken&)
                               { return RunAttempt{}; },
                           policy, nullptr),
               CheckError);
}

}  // namespace
}  // namespace g10::ensemble
