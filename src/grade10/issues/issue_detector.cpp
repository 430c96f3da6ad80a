#include "grade10/issues/issue_detector.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.hpp"

namespace g10::core {

IssueDetector::IssueDetector(const ExecutionModel& model,
                             const ResourceModel& resources,
                             const ExecutionTrace& trace,
                             const TimesliceGrid& grid,
                             const AnalysisConfig& config)
    : model_(model),
      resources_(resources),
      trace_(trace),
      grid_(grid),
      config_(config),
      simulator_(model, trace),
      recorded_(simulator_.recorded_durations()),
      baseline_(simulator_.simulate(recorded_).makespan) {}

namespace {

void collect_leaves(const ExecutionTrace& trace, InstanceId root,
                    std::vector<InstanceId>& out) {
  const PhaseInstance& instance = trace.instance(root);
  if (instance.is_leaf()) {
    out.push_back(root);
    return;
  }
  for (const InstanceId child : instance.children) {
    collect_leaves(trace, child, out);
  }
}

}  // namespace

std::vector<DurationNs> IssueDetector::balanced_durations(
    PhaseTypeId type) const {
  std::vector<DurationNs> adjusted = recorded_;

  // Group same-type instances by parent.
  std::map<InstanceId, std::vector<InstanceId>> groups;
  for (const PhaseInstance& instance : trace_.instances()) {
    if (instance.type == type && instance.parent != kNoInstance) {
      groups[instance.parent].push_back(instance.id);
    }
  }
  for (const auto& [parent, members] : groups) {
    if (members.size() < 2) continue;
    double total = 0.0;
    for (const InstanceId id : members) {
      total += static_cast<double>(trace_.instance(id).duration());
    }
    const double mean = total / static_cast<double>(members.size());
    for (const InstanceId id : members) {
      const auto duration =
          static_cast<double>(trace_.instance(id).duration());
      const PhaseInstance& instance = trace_.instance(id);
      if (instance.is_leaf()) {
        adjusted[static_cast<std::size_t>(id)] =
            static_cast<DurationNs>(mean);
        continue;
      }
      if (duration <= 0.0) continue;
      const double factor = mean / duration;
      std::vector<InstanceId> leaves;
      collect_leaves(trace_, id, leaves);
      for (const InstanceId leaf : leaves) {
        adjusted[static_cast<std::size_t>(leaf)] = static_cast<DurationNs>(
            static_cast<double>(adjusted[static_cast<std::size_t>(leaf)]) *
            factor);
      }
    }
  }
  return adjusted;
}

PerformanceIssue IssueDetector::imbalance_issue(PhaseTypeId type) const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kImbalance;
  issue.phase_type = type;
  issue.description =
      "imbalance across concurrent '" + model_.type(type).name + "' phases";
  issue.baseline_makespan = baseline_;
  issue.optimistic_makespan =
      simulator_.simulate(balanced_durations(type)).makespan;
  issue.impact =
      baseline_ > 0
          ? static_cast<double>(baseline_ - issue.optimistic_makespan) /
                static_cast<double>(baseline_)
          : 0.0;
  return issue;
}

PerformanceIssue IssueDetector::bottleneck_issue(
    ResourceId resource, const AttributedUsage& usage,
    const BottleneckReport& bottlenecks) const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kResourceBottleneck;
  issue.resource = resource;
  issue.description =
      "bottleneck on resource '" + resources_.resource(resource).name + "'";
  issue.baseline_makespan = baseline_;

  std::vector<DurationNs> adjusted = recorded_;
  // Per-slice shrinks are accumulated in floating point and applied once
  // per instance, so slice-granularity rounding does not bias the result.
  std::vector<double> shrink_by_instance(recorded_.size(), 0.0);
  const Resource& spec = resources_.resource(resource);
  if (spec.kind == ResourceKind::kBlocking) {
    for (const auto& [key, blocked_time] : bottlenecks.blocked) {
      if (key.second != resource) continue;
      auto& duration = adjusted[static_cast<std::size_t>(key.first)];
      duration = std::max<DurationNs>(0, duration - blocked_time);
    }
  } else {
    const double slice_len = static_cast<double>(grid_.slice_duration());
    for (const AttributedResource& ar : usage.resources) {
      if (ar.resource != resource) continue;
      const ResourceSaturation* saturation =
          bottlenecks.find_saturation(resource, ar.machine);
      // Utilization of the other consumable resources on this machine: the
      // next binding constraint once `resource` is removed.
      std::vector<const AttributedResource*> others;
      for (const AttributedResource& other : usage.resources) {
        if (other.machine == ar.machine && other.resource != resource) {
          others.push_back(&other);
        }
      }
      for (TimesliceIndex s = 0; s < ar.slice_count(); ++s) {
        const bool slice_saturated =
            saturation != nullptr &&
            saturation->saturated[static_cast<std::size_t>(s)] != 0;
        double next_binding = config_.min_shrink_fraction;
        for (const AttributedResource* other : others) {
          if (static_cast<std::size_t>(s) < other->upsampled.usage.size()) {
            next_binding = std::max(
                next_binding,
                other->upsampled.usage[static_cast<std::size_t>(s)] /
                    other->capacity);
          }
        }
        next_binding = std::min(next_binding, 1.0);
        const auto entries = ar.slice_entries(s);
        // Self-limited phases (pinned at their own Exact cap while the
        // resource has headroom) can at best absorb the slice's idle
        // capacity, shared among them — unlike a saturated resource,
        // nothing else frees up when the configuration limit is lifted.
        double self_limited_usage = 0.0;
        for (const AttributionEntry& entry : entries) {
          if (entry.exact && entry.demand > 0.0 &&
              entry.usage >= config_.exact_cap_threshold * entry.demand) {
            self_limited_usage += entry.usage;
          }
        }
        const double headroom = std::max(
            0.0,
            ar.capacity - ar.upsampled.usage[static_cast<std::size_t>(s)]);
        const double self_limit_factor =
            self_limited_usage > 0.0
                ? self_limited_usage / (self_limited_usage + headroom)
                : 1.0;
        for (const AttributionEntry& entry : entries) {
          const bool self_limited =
              entry.exact && entry.demand > 0.0 &&
              entry.usage >= config_.exact_cap_threshold * entry.demand;
          if (!slice_saturated && !self_limited) continue;
          const double factor =
              slice_saturated
                  ? next_binding
                  : std::max(next_binding, self_limit_factor);
          shrink_by_instance[static_cast<std::size_t>(entry.instance)] +=
              slice_len * entry.fraction * (1.0 - factor);
        }
      }
    }
    for (std::size_t i = 0; i < adjusted.size(); ++i) {
      if (shrink_by_instance[i] > 0.0) {
        adjusted[i] = std::max<DurationNs>(
            0, adjusted[i] - static_cast<DurationNs>(
                                 std::llround(shrink_by_instance[i])));
      }
    }
  }
  issue.optimistic_makespan = simulator_.simulate(adjusted).makespan;
  issue.impact =
      baseline_ > 0
          ? static_cast<double>(baseline_ - issue.optimistic_makespan) /
                static_cast<double>(baseline_)
          : 0.0;
  return issue;
}

PerformanceIssue IssueDetector::fault_recovery_issue() const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kFaultRecovery;
  issue.description = "time lost to fault handling (crash recovery, retries)";
  std::vector<Interval> spans;
  for (const BlockingSpan& span : trace_.blocking()) {
    const std::string& name = resources_.resource(span.resource).name;
    if (std::find(config_.fault_resources.begin(),
                  config_.fault_resources.end(),
                  name) == config_.fault_resources.end()) {
      continue;
    }
    spans.push_back(span.interval);
  }
  const TimeNs end_time = trace_.end_time();
  issue.baseline_makespan = end_time;
  DurationNs blocked = 0;
  if (!spans.empty()) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    TimeNs cursor = spans.front().begin;
    for (const Interval& span : spans) {
      const TimeNs begin = std::max(span.begin, cursor);
      if (span.end > begin) {
        blocked += span.end - begin;
        cursor = span.end;
      }
    }
  }
  issue.optimistic_makespan = end_time - blocked;
  issue.impact = end_time > 0
                     ? static_cast<double>(blocked) /
                           static_cast<double>(end_time)
                     : 0.0;
  return issue;
}

std::vector<PerformanceIssue> IssueDetector::detect(
    const AttributedUsage& usage, const BottleneckReport& bottlenecks) {
  // Issues are collected in a fixed order (bottlenecks, fault recovery,
  // imbalances), so the impact sort below sees the same input sequence on
  // every run and ties break identically.
  std::vector<PerformanceIssue> issues;
  for (ResourceId r = 0;
       r < static_cast<ResourceId>(resources_.resource_count()); ++r) {
    // Fault-class resources are covered by the dedicated fault-recovery
    // issue below; a bottleneck replay would zero their wait-type phases.
    const std::string& name = resources_.resource(r).name;
    if (std::find(config_.fault_resources.begin(),
                  config_.fault_resources.end(),
                  name) != config_.fault_resources.end()) {
      continue;
    }
    issues.push_back(bottleneck_issue(r, usage, bottlenecks));
  }
  {
    PerformanceIssue fault = fault_recovery_issue();
    if (fault.optimistic_makespan < fault.baseline_makespan) {
      issues.push_back(std::move(fault));
    }
  }
  for (PhaseTypeId t = 0; t < static_cast<PhaseTypeId>(model_.type_count());
       ++t) {
    if (t == model_.root() || model_.type(t).wait) continue;
    // Only types that actually form concurrent sibling groups.
    std::map<InstanceId, int> counts;
    bool has_group = false;
    for (const PhaseInstance& instance : trace_.instances()) {
      if (instance.type == t && instance.parent != kNoInstance &&
          ++counts[instance.parent] >= 2) {
        has_group = true;
        break;
      }
    }
    if (has_group) issues.push_back(imbalance_issue(t));
  }
  std::erase_if(issues, [this](const PerformanceIssue& issue) {
    return issue.impact < config_.min_issue_impact;
  });
  std::sort(issues.begin(), issues.end(),
            [](const PerformanceIssue& a, const PerformanceIssue& b) {
              return a.impact > b.impact;
            });
  return issues;
}

}  // namespace g10::core
