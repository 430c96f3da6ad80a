#include "grade10/issues/replay_simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>

#include "common/check.hpp"

namespace g10::core {

ReplaySimulator::ReplaySimulator(const ExecutionModel& model,
                                 const ExecutionTrace& trace)
    : model_(model), trace_(trace) {
  model_.validate();
  // Topological order of child types per parent (Kahn per sibling group).
  std::vector<std::vector<PhaseTypeId>> child_type_order(model_.type_count());
  for (std::size_t p = 0; p < model_.type_count(); ++p) {
    const auto& group = model_.type(static_cast<PhaseTypeId>(p)).children;
    std::map<PhaseTypeId, int> indegree;
    for (PhaseTypeId t : group) indegree[t] = 0;
    for (PhaseTypeId t : group) {
      for (PhaseTypeId succ : model_.type(t).successors) ++indegree[succ];
    }
    std::vector<PhaseTypeId> ready;
    for (PhaseTypeId t : group) {
      if (indegree[t] == 0) ready.push_back(t);
    }
    auto& order = child_type_order[p];
    while (!ready.empty()) {
      // Deterministic: take the smallest id first.
      std::sort(ready.begin(), ready.end(), std::greater<>());
      const PhaseTypeId t = ready.back();
      ready.pop_back();
      order.push_back(t);
      for (PhaseTypeId succ : model_.type(t).successors) {
        if (--indegree[succ] == 0) ready.push_back(succ);
      }
    }
    G10_CHECK(order.size() == group.size());
  }

  const std::vector<PhaseInstance>& instances = trace_.instances();
  group_begin_.reserve(instances.size() + 1);
  tail_.assign(instances.size(), 0);
  children_.reserve(instances.size());
  for (std::size_t id = 0; id < instances.size(); ++id) {
    group_begin_.push_back(groups_.size());
    const PhaseInstance& instance = instances[id];
    if (instance.is_leaf()) continue;
    // Group children by type; sort each type's instances by index.
    std::map<PhaseTypeId, std::vector<InstanceId>> by_type;
    TimeNs latest_recorded_child_end = instance.begin;
    for (const InstanceId child : instance.children) {
      by_type[trace_.instance(child).type].push_back(child);
      latest_recorded_child_end =
          std::max(latest_recorded_child_end, trace_.instance(child).end);
    }
    tail_[id] =
        std::max<DurationNs>(0, instance.end - latest_recorded_child_end);
    for (const PhaseTypeId type :
         child_type_order[static_cast<std::size_t>(instance.type)]) {
      const auto it = by_type.find(type);
      if (it == by_type.end()) continue;
      std::vector<InstanceId>& list = it->second;
      std::sort(list.begin(), list.end(), [this](InstanceId a, InstanceId b) {
        return trace_.instance(a).index < trace_.instance(b).index;
      });
      const std::size_t begin = children_.size();
      children_.insert(children_.end(), list.begin(), list.end());
      groups_.push_back({type, begin, children_.size()});
    }
  }
  group_begin_.push_back(groups_.size());
}

std::vector<DurationNs> ReplaySimulator::recorded_durations() const {
  std::vector<DurationNs> durations(trace_.instances().size(), 0);
  for (const InstanceId leaf : trace_.leaves()) {
    const PhaseInstance& instance = trace_.instance(leaf);
    durations[static_cast<std::size_t>(leaf)] = instance.duration();
  }
  return durations;
}

TimeNs ReplaySimulator::schedule_instance(
    InstanceId id, TimeNs start, const std::vector<DurationNs>& durations,
    ReplaySchedule& out) const {
  const PhaseInstance& instance = trace_.instance(id);
  out.start[static_cast<std::size_t>(id)] = start;
  if (instance.is_leaf()) {
    const DurationNs duration =
        model_.type(instance.type).wait
            ? 0
            : std::max<DurationNs>(0,
                                   durations[static_cast<std::size_t>(id)]);
    const TimeNs end = start + duration;
    out.end[static_cast<std::size_t>(id)] = end;
    return end;
  }

  TimeNs latest_child_end = start;
  InstanceId latest_child = kNoInstance;
  const std::size_t first_group = group_begin_[static_cast<std::size_t>(id)];
  const std::size_t end_group =
      group_begin_[static_cast<std::size_t>(id) + 1];
  for (std::size_t g = first_group; g < end_group; ++g) {
    const SiblingGroup& group = groups_[g];
    const PhaseType& type_info = model_.type(group.type);

    // Concurrency slots (0 limit = unbounded).
    std::vector<TimeNs> slots;
    std::vector<InstanceId> slot_owner;
    if (type_info.concurrency_limit > 0) {
      slots.assign(static_cast<std::size_t>(type_info.concurrency_limit),
                   start);
      slot_owner.assign(slots.size(), kNoInstance);
    }

    InstanceId previous_id = kNoInstance;  // for repeated types
    for (std::size_t c = group.begin; c < group.end; ++c) {
      const InstanceId child = children_[c];
      const PhaseInstance& child_instance = trace_.instance(child);
      TimeNs ready = start;
      InstanceId binding = kNoInstance;
      const auto raise = [&](InstanceId source) {
        const TimeNs candidate = out.end[static_cast<std::size_t>(source)];
        if (candidate > ready) {
          ready = candidate;
          binding = source;
        }
      };
      // Precedence from model edges, matched by instance index against the
      // sibling groups already scheduled (indices are unique within a
      // group: a path is its parent's path plus type and index).
      for (const PhaseTypeId pred : type_info.predecessors) {
        const SiblingGroup* pred_group = nullptr;
        for (std::size_t h = first_group; h < g; ++h) {
          if (groups_[h].type == pred) pred_group = &groups_[h];
        }
        if (pred_group == nullptr) continue;
        const auto first = children_.begin() +
                           static_cast<std::ptrdiff_t>(pred_group->begin);
        const auto last = children_.begin() +
                          static_cast<std::ptrdiff_t>(pred_group->end);
        const auto exact = std::lower_bound(
            first, last, child_instance.index,
            [this](InstanceId other, std::int64_t index) {
              return trace_.instance(other).index < index;
            });
        if (exact != last &&
            trace_.instance(*exact).index == child_instance.index) {
          raise(*exact);
        } else {
          for (auto it = first; it != last; ++it) raise(*it);
        }
      }
      if (type_info.repeated && previous_id != kNoInstance) {
        raise(previous_id);
      }
      auto slot = slots.end();
      if (!slots.empty()) {
        // List scheduling: earliest-free slot.
        slot = std::min_element(slots.begin(), slots.end());
        if (*slot > ready) {
          ready = *slot;
          binding = slot_owner[static_cast<std::size_t>(slot - slots.begin())];
        }
      }
      out.binding_pred[static_cast<std::size_t>(child)] = binding;
      const TimeNs end = schedule_instance(child, ready, durations, out);
      if (!slots.empty()) {
        *slot = end;
        slot_owner[static_cast<std::size_t>(slot - slots.begin())] = child;
      }
      previous_id = child;
      if (end > latest_child_end) {
        latest_child_end = end;
        latest_child = child;
      }
    }
  }

  out.binding_child[static_cast<std::size_t>(id)] = latest_child;
  const TimeNs end = latest_child_end + tail_[static_cast<std::size_t>(id)];
  out.end[static_cast<std::size_t>(id)] = end;
  return end;
}

ReplaySchedule ReplaySimulator::simulate(
    const std::vector<DurationNs>& leaf_durations) const {
  G10_CHECK(leaf_durations.size() == trace_.instances().size());
  ReplaySchedule schedule;
  schedule.start.assign(trace_.instances().size(), 0);
  schedule.end.assign(trace_.instances().size(), 0);
  schedule.binding_child.assign(trace_.instances().size(), kNoInstance);
  schedule.binding_pred.assign(trace_.instances().size(), kNoInstance);
  if (trace_.root() == kNoInstance) return schedule;
  schedule.makespan =
      schedule_instance(trace_.root(), 0, leaf_durations, schedule);
  return schedule;
}

std::vector<InstanceId> ReplaySimulator::critical_leaves(
    const ReplaySchedule& schedule) const {
  std::vector<InstanceId> path;
  if (trace_.root() == kNoInstance) return path;
  const auto descend = [&](InstanceId node) {
    while (schedule.binding_child[static_cast<std::size_t>(node)] !=
           kNoInstance) {
      node = schedule.binding_child[static_cast<std::size_t>(node)];
    }
    return node;
  };
  InstanceId cur = descend(trace_.root());
  // Generous bound against cycles (each step moves strictly earlier).
  for (std::size_t guard = 0; guard < 4 * trace_.instances().size();
       ++guard) {
    if (trace_.instance(cur).is_leaf()) path.push_back(cur);
    const InstanceId pred =
        schedule.binding_pred[static_cast<std::size_t>(cur)];
    if (pred != kNoInstance) {
      cur = descend(pred);
    } else if (trace_.instance(cur).parent != kNoInstance) {
      cur = trace_.instance(cur).parent;
    } else {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TimeNs ReplaySimulator::baseline_makespan() const {
  return simulate(recorded_durations()).makespan;
}

}  // namespace g10::core
