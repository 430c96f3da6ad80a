#include "grade10/bottleneck/bottleneck.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::core {

const ResourceSaturation* BottleneckReport::find_saturation(
    ResourceId resource, trace::MachineId machine) const {
  for (const auto& s : saturation) {
    if (s.resource == resource && s.machine == machine) return &s;
  }
  return nullptr;
}

DurationNs BottleneckReport::bottleneck_time(InstanceId instance,
                                             ResourceId resource) const {
  DurationNs total = 0;
  if (const auto it = blocked.find({instance, resource}); it != blocked.end()) {
    total += it->second;
  }
  if (const auto it = saturated.find({instance, resource});
      it != saturated.end()) {
    total += it->second;
  }
  if (const auto it = self_limited.find({instance, resource});
      it != self_limited.end()) {
    total += it->second;
  }
  return total;
}

std::map<ResourceId, DurationNs> BottleneckReport::totals_by_resource(
    const std::map<std::pair<InstanceId, ResourceId>, DurationNs>& m) {
  std::map<ResourceId, DurationNs> totals;
  for (const auto& [key, value] : m) totals[key.second] += value;
  return totals;
}

namespace {

/// Classifies a single attributed resource instance into `report`: appends
/// its saturation timeline and adds its consumable bottlenecks.
void detect_one(const AttributedResource& res, const TimesliceGrid& grid,
                const AnalysisConfig& config, BottleneckReport& report) {
  const DurationNs slice = grid.slice_duration();

  // Saturation timeline with run-length filtering.
  ResourceSaturation& sat = report.saturation.emplace_back();
  sat.resource = res.resource;
  sat.machine = res.machine;
  const auto slices = static_cast<std::size_t>(res.slice_count());
  G10_ASSERT_MSG(res.upsampled.usage.size() == slices,
                 "attributed resource and upsampled series disagree on "
                 "slice count");
  sat.saturated.assign(slices, 0);
  const double threshold = config.saturation_threshold * res.capacity;
  std::size_t run_start = 0;
  bool in_run = false;
  const auto close_run = [&](std::size_t end) {
    if (!in_run) return;
    if (end - run_start >=
        static_cast<std::size_t>(config.min_saturation_slices)) {
      for (std::size_t s = run_start; s < end; ++s) sat.saturated[s] = 1;
      sat.total_saturated +=
          static_cast<DurationNs>(end - run_start) * slice;
    }
    in_run = false;
  };
  for (std::size_t s = 0; s < slices; ++s) {
    if (res.upsampled.usage[s] >= threshold) {
      if (!in_run) {
        in_run = true;
        run_start = s;
      }
    } else {
      close_run(s);
    }
  }
  close_run(slices);

  // Per-phase consumable bottlenecks.
  for (std::size_t s = 0; s < slices; ++s) {
    const auto entries = res.slice_entries(static_cast<TimesliceIndex>(s));
    for (const AttributionEntry& entry : entries) {
      if (entry.demand <= 0.0) continue;
      const auto affected = static_cast<DurationNs>(
          entry.fraction * static_cast<double>(slice));
      if (sat.saturated[s]) {
        report.saturated[{entry.instance, res.resource}] += affected;
      } else if (entry.exact &&
                 entry.usage >= config.exact_cap_threshold * entry.demand) {
        report.self_limited[{entry.instance, res.resource}] += affected;
      }
    }
  }
}

}  // namespace

BottleneckReport detect_bottlenecks(const AttributedUsage& usage,
                                    const ExecutionTrace& trace,
                                    const TimesliceGrid& grid,
                                    const AnalysisConfig& config) {
  BottleneckReport report;

  // Blocking bottlenecks: straight from the blocking events.
  for (const BlockingSpan& span : trace.blocking()) {
    report.blocked[{span.instance, span.resource}] += span.interval.length();
  }

  // Consumable bottlenecks, one resource instance at a time in resource
  // order.
  for (const AttributedResource& res : usage.resources) {
    detect_one(res, grid, config, report);
  }
  return report;
}

}  // namespace g10::core
