// Tunables of the Grade10 analysis pipeline.
#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"

namespace g10::core {

struct AnalysisConfig {
  /// Timeslice duration (paper §III-C; tens of milliseconds in practice).
  DurationNs timeslice = 10 * kMillisecond;

  /// A consumable resource counts as saturated in a slice when its
  /// upsampled utilization reaches this fraction of capacity...
  double saturation_threshold = 0.97;
  /// ...for at least this many consecutive slices ("extended periods").
  int min_saturation_slices = 1;

  /// A phase with an Exact rule counts as self-limited in a slice when its
  /// attributed usage reaches this fraction of its own demand.
  double exact_cap_threshold = 0.85;

  /// Performance issues below this makespan-reduction fraction are dropped
  /// (the paper's "arbitrary minimum threshold").
  double min_issue_impact = 0.01;

  /// When simulating the removal of a resource bottleneck, a bottlenecked
  /// slice shrinks to the utilization of the next-binding resource, but
  /// never below this floor.
  double min_shrink_fraction = 0.02;

  /// Blocking resources that represent fault handling (crash recovery,
  /// send retries). Their blocked time is reported as a single
  /// fault-recovery issue measured directly on the trace, not through the
  /// replay simulator: recovery phases are wait-type, so a replay that
  /// zeroes them would understate the real cost.
  std::vector<std::string> fault_resources{"Recovery", "Retry"};
};

}  // namespace g10::core
