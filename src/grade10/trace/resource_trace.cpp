#include "grade10/trace/resource_trace.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"

namespace g10::core {

ResourceTrace ResourceTrace::build(
    const ResourceModel& model,
    std::span<const trace::MonitoringSampleRecord> samples) {
  std::map<std::pair<ResourceId, trace::MachineId>,
           std::vector<const trace::MonitoringSampleRecord*>>
      groups;
  for (const auto& sample : samples) {
    const ResourceId resource = model.find(sample.resource);
    G10_CHECK_MSG(resource != kNoResource,
                  "unknown monitored resource: "
                      << trace::SymbolTable::global().name(sample.resource));
    G10_CHECK_MSG(model.resource(resource).kind == ResourceKind::kConsumable,
                  "monitoring sample for blocking resource: "
                      << model.resource(resource).name);
    groups[{resource, sample.machine}].push_back(&sample);
  }

  ResourceTrace trace;
  for (auto& [key, recs] : groups) {
    std::sort(recs.begin(), recs.end(),
              [](const auto* a, const auto* b) { return a->time < b->time; });
    ResourceSeries series;
    series.resource = key.first;
    series.machine = key.second;
    TimeNs previous = 0;
    for (const auto* rec : recs) {
      G10_CHECK_MSG(rec->time > previous,
                    "duplicate monitoring sample time for "
                        << model.resource(key.first).name);
      series.measurements.push_back(Measurement{previous, rec->time, rec->value});
      previous = rec->time;
    }
    trace.series_.push_back(std::move(series));
  }
  return trace;
}

const ResourceSeries* ResourceTrace::find(ResourceId resource,
                                          trace::MachineId machine) const {
  for (const auto& series : series_) {
    if (series.resource == resource && series.machine == machine) {
      return &series;
    }
  }
  return nullptr;
}

}  // namespace g10::core
