#include "monitor/sampler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"

namespace g10::monitor {

using trace::MonitoringSampleRecord;

std::vector<MonitoringSampleRecord> sample_ground_truth(
    const std::vector<trace::GroundTruthSeries>& series, DurationNs interval,
    TimeNs end) {
  G10_CHECK(interval > 0);
  G10_CHECK(end > 0);
  std::vector<MonitoringSampleRecord> out;
  for (const auto& gt : series) {
    for (TimeNs t = interval; t - interval < end; t += interval) {
      const TimeNs window_end = std::min(t, end);
      MonitoringSampleRecord rec;
      rec.resource = gt.resource;
      rec.machine = gt.machine;
      rec.time = window_end;
      rec.value = gt.series.average(t - interval, window_end);
      out.push_back(std::move(rec));
      if (window_end == end) break;
    }
  }
  return out;
}

std::vector<MonitoringSampleRecord> downsample(
    const std::vector<MonitoringSampleRecord>& samples, int factor) {
  G10_CHECK(factor >= 1);
  if (factor == 1) return samples;

  // Group by stream, preserving per-stream order; streams are emitted in
  // (resource name, machine) order.
  const trace::SymbolTable& symbols = trace::SymbolTable::global();
  std::map<std::pair<std::string_view, trace::MachineId>,
           std::vector<const MonitoringSampleRecord*>>
      streams;
  for (const auto& rec : samples) {
    streams[{symbols.name(rec.resource), rec.machine}].push_back(&rec);
  }
  std::vector<MonitoringSampleRecord> out;
  for (auto& [key, recs] : streams) {
    std::sort(recs.begin(), recs.end(),
              [](const auto* a, const auto* b) { return a->time < b->time; });
    for (std::size_t i = 0; i < recs.size(); i += static_cast<std::size_t>(factor)) {
      const std::size_t end =
          std::min(recs.size(), i + static_cast<std::size_t>(factor));
      double sum = 0.0;
      for (std::size_t j = i; j < end; ++j) sum += recs[j]->value;
      MonitoringSampleRecord merged;
      merged.resource = recs.front()->resource;
      merged.machine = key.second;
      merged.time = recs[end - 1]->time;
      merged.value = sum / static_cast<double>(end - i);
      out.push_back(std::move(merged));
    }
  }
  return out;
}

std::vector<MonitoringSampleRecord> apply_sampler_dropout(
    const std::vector<MonitoringSampleRecord>& samples,
    const sim::FaultInjector& faults) {
  if (faults.empty()) return samples;
  std::vector<MonitoringSampleRecord> out;
  out.reserve(samples.size());
  for (const auto& rec : samples) {
    if (rec.machine != trace::kGlobalMachine &&
        faults.sample_dropped(rec.machine, rec.time)) {
      continue;
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace g10::monitor
