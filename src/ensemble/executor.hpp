// Robust run execution for the ensemble driver: a per-attempt deadline with
// cooperative cancellation, outcome classification, and retries with
// capped exponential backoff.
//
// The run function is a plain callable — the Grade10 engine+analyze runner
// in production, a synthetic one in tests — that receives a CancelToken and
// is expected to poll it at stage boundaries. Cancellation is cooperative:
// nothing ever kills a thread (that would corrupt shared state); a poll
// past the deadline tells the run to stop, and the executor classifies the
// attempt as a timeout when the deadline passed before the run returned,
// regardless of what the run reported. A run that ignores its token still
// gets classified correctly once it returns; only a run that never returns
// can hold its ensemble thread, which is why every built-in runner stage
// polls.
//
// Outcome taxonomy (journaled, documented in DESIGN.md §12):
//   ok              run + analysis completed
//   timeout         the per-run deadline fired before the run finished
//   run_failed      the engine run threw / reported failure
//   analysis_failed the run produced artifacts but characterization failed
//   skipped         never attempted (ensemble stopping / --limit reached)
//
// Retry policy: timeouts and failed runs are transient in a real fleet and
// are retried up to max_attempts with capped exponential backoff; analysis
// failures are deterministic functions of the artifacts and are not retried
// by default. A run that exhausts its attempts keeps its last outcome —
// the ensemble aggregates partial fleets and stamps the coverage fraction
// instead of failing.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "ensemble/run_report.hpp"
#include "ensemble/scenario.hpp"

namespace g10::ensemble {

enum class RunOutcome {
  kOk,
  kTimeout,
  kRunFailed,
  kAnalysisFailed,
  kSkipped,
};

/// Journal/report tag ("ok", "timeout", "run_failed", ...).
std::string_view outcome_name(RunOutcome outcome);
std::optional<RunOutcome> parse_outcome(std::string_view name);

/// Cooperative cancellation for one attempt. The token carries the
/// attempt's optional deadline and may be linked to an external stop flag
/// (a SIGTERM handler's, a worker's orphan detector's): cancelled() reports
/// both, so an in-flight run winds down at its next poll, while fired()
/// reports only the deadline verdict — the executor must not classify a
/// shutdown as a timeout. Each poll compares the clock with the deadline;
/// no other thread is involved.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;
  /// Seconds as a double: now() plus any deadline a flag can express is
  /// representable, where a huge one would overflow Clock's integer ticks.
  using Deadline =
      std::chrono::time_point<Clock, std::chrono::duration<double>>;

  explicit CancelToken(const std::atomic<bool>* stop = nullptr,
                       std::optional<Deadline> deadline = {})
      : stop_(stop), deadline_(deadline) {}

  bool cancelled() const {
    return fired() ||
           (stop_ != nullptr && stop_->load(std::memory_order_acquire));
  }
  /// The deadline has passed — excludes the linked external stop.
  bool fired() const { return deadline_ && Clock::now() >= *deadline_; }

 private:
  const std::atomic<bool>* stop_;
  std::optional<Deadline> deadline_;
};

struct RetryPolicy {
  int max_attempts = 2;
  /// Per-attempt deadline; <= 0 disables it.
  double deadline_seconds = 0.0;
  /// Capped exponential backoff between attempts.
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  double backoff_factor = 2.0;

  bool retry_timeout = true;
  bool retry_run_failed = true;
  bool retry_analysis_failed = false;

  bool retries(RunOutcome outcome) const;
  /// Backoff before attempt `next_attempt` (2-based), capped.
  double backoff_seconds(int next_attempt) const;
};

/// What one attempt of the run function reports back.
struct RunAttempt {
  RunOutcome outcome = RunOutcome::kRunFailed;
  RunReport report;
  std::string error;
};

using RunFn = std::function<RunAttempt(const Scenario&, const CancelToken&)>;

/// Final classified result of a scenario after retries.
struct RunResult {
  RunOutcome outcome = RunOutcome::kSkipped;
  int attempts = 0;
  double wall_ms = 0.0;  ///< total across attempts; journaled, not aggregated
  std::string error;
  RunReport report;  ///< meaningful when outcome == kOk
};

class RunExecutor {
 public:
  RunExecutor(RunFn fn, RetryPolicy policy);

  /// Runs the scenario to a final classified outcome. When `stop` is set
  /// before the first attempt the scenario is skipped; when it is raised
  /// between attempts, remaining retries are abandoned and the last
  /// attempt's outcome stands. Never throws for run-induced failures.
  RunResult execute(const Scenario& scenario,
                    const std::atomic<bool>* stop = nullptr) const;

 private:
  RunFn fn_;
  RetryPolicy policy_;
};

}  // namespace g10::ensemble
