// The production RunFn: one Scenario → engine run → monitoring sampling →
// Grade10 characterization → RunReport digest, all in-process (no g10_run
// subprocess — the ensemble runs hundreds of these on its threads).
//
// The runner polls its CancelToken at stage boundaries (after graph
// construction, the engine run, sampling, and characterization), so a run
// whose deadline passes releases its thread at the next boundary instead
// of wedging the fleet. Graphs are cached per dataset spec and shared
// across runs; SSSP re-weights a copy per seed.
#pragma once

#include "common/time.hpp"
#include "ensemble/executor.hpp"

namespace g10::ensemble {

struct Grade10RunnerOptions {
  /// Monitoring-sample cadence fed to the analysis.
  DurationNs monitor_interval = 100 * kMillisecond;
  /// Analysis timeslice (paper §III-C).
  DurationNs timeslice = 20 * kMillisecond;
  /// Issues below this impact fraction are dropped from the report.
  double min_issue_impact = 0.02;
  /// GAS sync-bug reproduction probability when Scenario::sync_bug is set.
  double sync_bug_probability = 0.25;
  /// The injected sync bug counts as rediscovered when a Gather-phase
  /// imbalance issue clears this impact fraction.
  double rediscovery_min_impact = 0.02;
};

/// Builds the Grade10 run function. The returned callable is thread-safe
/// and stateless apart from the shared graph cache.
RunFn make_grade10_runner(const Grade10RunnerOptions& options = {});

}  // namespace g10::ensemble
