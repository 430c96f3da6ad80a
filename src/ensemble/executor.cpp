#include "ensemble/executor.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/check.hpp"

namespace g10::ensemble {

std::string_view outcome_name(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kOk:
      return "ok";
    case RunOutcome::kTimeout:
      return "timeout";
    case RunOutcome::kRunFailed:
      return "run_failed";
    case RunOutcome::kAnalysisFailed:
      return "analysis_failed";
    case RunOutcome::kSkipped:
      return "skipped";
  }
  return "?";
}

std::optional<RunOutcome> parse_outcome(std::string_view name) {
  if (name == "ok") return RunOutcome::kOk;
  if (name == "timeout") return RunOutcome::kTimeout;
  if (name == "run_failed") return RunOutcome::kRunFailed;
  if (name == "analysis_failed") return RunOutcome::kAnalysisFailed;
  if (name == "skipped") return RunOutcome::kSkipped;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// RetryPolicy / RunExecutor
// ---------------------------------------------------------------------------

bool RetryPolicy::retries(RunOutcome outcome) const {
  switch (outcome) {
    case RunOutcome::kTimeout:
      return retry_timeout;
    case RunOutcome::kRunFailed:
      return retry_run_failed;
    case RunOutcome::kAnalysisFailed:
      return retry_analysis_failed;
    case RunOutcome::kOk:
    case RunOutcome::kSkipped:
      return false;
  }
  return false;
}

double RetryPolicy::backoff_seconds(int next_attempt) const {
  double backoff = backoff_initial_seconds;
  for (int i = 2; i < next_attempt; ++i) {
    backoff *= backoff_factor;
    if (backoff >= backoff_max_seconds) break;
  }
  return std::min(backoff, backoff_max_seconds);
}

RunExecutor::RunExecutor(RunFn fn, RetryPolicy policy)
    : fn_(std::move(fn)), policy_(policy) {
  G10_CHECK_MSG(policy_.max_attempts >= 1, "need at least one attempt");
}

RunResult RunExecutor::execute(const Scenario& scenario,
                               const std::atomic<bool>* stop) const {
  RunResult result;
  if (stop != nullptr && stop->load(std::memory_order_acquire)) {
    result.outcome = RunOutcome::kSkipped;
    result.error = "ensemble stopping";
    return result;
  }

  const auto started = std::chrono::steady_clock::now();
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    // A fresh token per attempt: a deadline that passed during attempt k
    // must not poison attempt k+1. The ensemble-wide stop flag is linked in
    // so a SIGTERM also cancels the in-flight attempt at its next poll.
    std::optional<CancelToken::Deadline> deadline;
    if (policy_.deadline_seconds > 0.0) {
      deadline = CancelToken::Clock::now() +
                 std::chrono::duration<double>(policy_.deadline_seconds);
    }
    const CancelToken token(stop, deadline);
    RunAttempt attempt_result;
    try {
      attempt_result = fn_(scenario, token);
    } catch (const std::exception& e) {
      attempt_result.outcome = RunOutcome::kRunFailed;
      attempt_result.error = e.what();
    } catch (...) {
      attempt_result.outcome = RunOutcome::kRunFailed;
      attempt_result.error = "unknown exception";
    }
    // The deadline verdict outranks whatever the run reported: a cancelled
    // attempt's partial output is untrustworthy by definition. fired()
    // deliberately excludes a linked stop flag — a shutdown is not a
    // timeout, and the driver discards non-ok results once stop is raised.
    const bool timed_out = token.fired();

    result.outcome =
        timed_out ? RunOutcome::kTimeout : attempt_result.outcome;
    result.attempts = attempt;
    result.error = timed_out ? "deadline exceeded" : attempt_result.error;
    result.report = result.outcome == RunOutcome::kOk ? attempt_result.report
                                                      : RunReport{};

    if (!policy_.retries(result.outcome) ||
        attempt >= policy_.max_attempts) {
      break;
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        policy_.backoff_seconds(attempt + 1)));
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace g10::ensemble
