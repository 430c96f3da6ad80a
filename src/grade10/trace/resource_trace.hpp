// Resource trace (paper §III-C): per-resource, per-machine sequences of
// coarse monitoring measurements. Each measurement is the average
// consumption rate over its window; windows tile the run.
#pragma once

#include <span>
#include <vector>

#include "common/time.hpp"
#include "grade10/model/resource_model.hpp"
#include "trace/records.hpp"

namespace g10::core {

struct Measurement {
  TimeNs begin = 0;
  TimeNs end = 0;
  double value = 0.0;  ///< average rate over [begin, end), resource units
};

struct ResourceSeries {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  std::vector<Measurement> measurements;  ///< sorted, non-overlapping
};

class ResourceTrace {
 public:
  /// Groups samples by (resource, machine) and derives each measurement's
  /// window start from the previous sample (the first starts at 0). Throws
  /// CheckError on a sample of a resource the model does not know.
  static ResourceTrace build(
      const ResourceModel& model,
      std::span<const trace::MonitoringSampleRecord> samples);

  const std::vector<ResourceSeries>& series() const { return series_; }
  const ResourceSeries* find(ResourceId resource,
                             trace::MachineId machine) const;

 private:
  std::vector<ResourceSeries> series_;
};

}  // namespace g10::core
