#include "grade10/trace/execution_trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::core {

DurationNs PhaseInstance::blocked_time() const {
  DurationNs total = 0;
  for (const auto& interval : blocked) total += interval.length();
  return total;
}

std::vector<Interval> active_intervals(TimeNs begin, TimeNs end,
                                       std::vector<Interval> blocked) {
  std::vector<Interval> active;
  if (end <= begin) return active;
  std::sort(blocked.begin(), blocked.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  TimeNs cursor = begin;
  for (const auto& b : blocked) {
    const TimeNs b_begin = std::max(b.begin, begin);
    const TimeNs b_end = std::min(b.end, end);
    if (b_end <= b_begin) continue;
    if (b_begin > cursor) active.push_back({cursor, b_begin});
    cursor = std::max(cursor, b_end);
  }
  if (cursor < end) active.push_back({cursor, end});
  return active;
}

ExecutionTrace ExecutionTrace::build(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    const Options& options) {
  model.validate();
  ExecutionTrace trace;
  const bool lenient = options.lenient;
  constexpr std::size_t kMaxWarnings = 24;
  std::size_t warning_overflow = 0;
  const auto warn = [&](std::string message) {
    if (trace.warnings_.size() < kMaxWarnings) {
      trace.warnings_.push_back(std::move(message));
    } else {
      ++warning_overflow;
    }
  };
  // Data damage is a hard error in strict mode and a warning in lenient
  // mode. Model violations never go through here — they always throw.
  const auto require_lenient = [lenient](const std::string& what) {
    if (!lenient) {
      throw CheckError("damaged trace: " + what +
                       " (lenient ingestion repairs this)");
    }
  };

  // Instances are found by path through by_path_; `paths` (by InstanceId)
  // points at the path of each instance's BEGIN event, and `ended` records
  // which have seen their END. All are sized for a well-formed log, where
  // half the events are BEGINs.
  const trace::SymbolTable& symbols = trace::SymbolTable::global();
  trace.instances_.reserve(phase_events.size() / 2);
  trace.by_path_.reserve(phase_events.size() / 2);
  std::vector<const trace::PathRef*> paths;
  paths.reserve(phase_events.size() / 2);
  std::vector<char> ended;
  ended.reserve(phase_events.size() / 2);

  for (const auto& event : phase_events) {
    if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
      const PhaseTypeId type = model.find(event.path.leaf().type);
      if (type == kNoPhaseType) {
        require_lenient("unknown phase type in log: " +
                        std::string(symbols.name(event.path.leaf().type)));
        warn("skipped phase of unknown type: " + event.path.to_string());
        continue;
      }
      const auto id = static_cast<InstanceId>(trace.instances_.size());
      if (!trace.by_path_.try_emplace(event.path, id).second) {
        require_lenient("duplicate phase begin: " + event.path.to_string());
        warn("skipped duplicate begin: " + event.path.to_string());
        continue;
      }
      PhaseInstance instance;
      instance.id = id;
      instance.type = type;
      instance.index = event.path.leaf().index;
      instance.begin = event.time;
      instance.end = -1;
      instance.machine = event.machine;
      instance.path = event.path.to_string();
      paths.push_back(&event.path);
      ended.push_back(0);
      trace.instances_.push_back(std::move(instance));
    } else {
      const auto it = trace.by_path_.find(event.path);
      if (it == trace.by_path_.end()) {
        require_lenient("phase end without begin: " + event.path.to_string());
        warn("skipped end without begin: " + event.path.to_string());
        continue;
      }
      const auto id = static_cast<std::size_t>(it->second);
      auto& instance = trace.instances_[id];
      if (ended[id]) {
        require_lenient("duplicate phase end: " + instance.path);
        warn("skipped duplicate end: " + instance.path);
        continue;
      }
      if (event.time < instance.begin) {
        // Leave the instance open; the synthesis pass below repairs it.
        require_lenient("phase " + instance.path + " ends before it begins");
        warn("skipped end before begin: " + instance.path);
        continue;
      }
      ended[id] = 1;
      instance.end = event.time;
      trace.end_time_ = std::max(trace.end_time_, event.time);
    }
  }

  // Every instance must have ended — a BEGIN without an END is the signature
  // of a crashed worker's log. Lenient mode repairs it below. Walk the
  // instances in begin order (not `by_path_`, whose hash order would make the
  // strict-mode error message pick an arbitrary victim).
  std::vector<InstanceId> unended;
  for (const auto& instance : trace.instances_) {
    if (instance.end >= 0) continue;
    require_lenient("phase never ended: " + instance.path);
    unended.push_back(instance.id);
  }

  // Resolve parents and verify model linkage. Model violations stay hard
  // errors even in lenient mode: they mean the wrong model, not a damaged
  // log. Temporal containment is checked after end synthesis.
  for (auto& instance : trace.instances_) {
    const PhaseType& type = model.type(instance.type);
    const trace::PathRef& path = *paths[static_cast<std::size_t>(instance.id)];
    if (path.depth() == 1) {
      G10_CHECK_MSG(instance.type == model.root(),
                    "non-root type at top level: " << instance.path);
      instance.parent = kNoInstance;
      continue;
    }
    const auto it = trace.by_path_.find(path.parent());
    G10_CHECK_MSG(it != trace.by_path_.end(),
                  "parent instance missing for " << instance.path);
    instance.parent = it->second;
    auto& parent = trace.instances_[static_cast<std::size_t>(it->second)];
    G10_CHECK_MSG(type.parent == parent.type,
                  "instance " << instance.path
                              << " violates the model hierarchy");
    parent.children.push_back(instance.id);
  }

  if (!unended.empty()) {
    // Synthesize closure for truncated phases. Bottom-up (deepest first):
    // an unended phase ends no earlier than anything recorded inside it —
    // its children's ends and its own blocking events — which pins the
    // deepest truncated subtree to the last time its worker was heard from
    // (the crash time). Top-down afterwards: a truncated child of a
    // truncated parent is stretched to the parent's synthesized end, so a
    // whole abandoned subtree closes at one consistent instant.
    std::unordered_map<trace::PathRef, TimeNs, trace::PathRefHash> block_max;
    for (const auto& event : blocking_events) {
      const auto [bit, inserted] = block_max.try_emplace(event.path, event.end);
      if (!inserted) bit->second = std::max(bit->second, event.end);
    }
    const auto path_of = [&](InstanceId id) -> const trace::PathRef& {
      return *paths[static_cast<std::size_t>(id)];
    };
    std::vector<InstanceId> by_depth = unended;
    std::sort(by_depth.begin(), by_depth.end(),
              [&](InstanceId a, InstanceId b) {
                const std::size_t da = path_of(a).depth();
                const std::size_t db = path_of(b).depth();
                return da != db ? da > db : a < b;
              });
    for (const InstanceId id : by_depth) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      TimeNs end = instance.begin;
      for (const InstanceId child : instance.children) {
        const auto& c = trace.instances_[static_cast<std::size_t>(child)];
        if (c.end >= 0) end = std::max(end, c.end);
      }
      const auto bit = block_max.find(path_of(id));
      if (bit != block_max.end()) end = std::max(end, bit->second);
      instance.end = end;
      instance.degraded = true;
    }
    std::reverse(by_depth.begin(), by_depth.end());  // now shallowest first
    for (const InstanceId id : by_depth) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      if (instance.parent == kNoInstance) continue;
      const auto& parent =
          trace.instances_[static_cast<std::size_t>(instance.parent)];
      if (parent.degraded) {
        instance.end = std::max(instance.end, parent.end);
      } else {
        instance.end = std::max(instance.begin,
                                std::min(instance.end, parent.end));
      }
    }
    for (const InstanceId id : unended) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      trace.end_time_ = std::max(trace.end_time_, instance.end);
      warn("phase never ended; synthesized closure at " +
           std::to_string(instance.end) + " ns: " + instance.path);
    }
  }

  // Temporal containment: a child must run inside its parent.
  for (auto& instance : trace.instances_) {
    if (instance.parent == kNoInstance) continue;
    const auto& parent =
        trace.instances_[static_cast<std::size_t>(instance.parent)];
    if (instance.begin >= parent.begin && instance.end <= parent.end) continue;
    require_lenient("instance " + instance.path +
                    " escapes its parent's interval");
    warn("clamped " + instance.path + " into its parent's interval");
    instance.begin = std::max(instance.begin, parent.begin);
    instance.end = std::min(instance.end, parent.end);
    if (instance.end < instance.begin) instance.end = instance.begin;
    instance.degraded = true;
  }

  for (const auto& instance : trace.instances_) {
    if (instance.is_leaf()) trace.leaves_.push_back(instance.id);
    if (instance.machine != trace::kGlobalMachine &&
        std::find(trace.machines_.begin(), trace.machines_.end(),
                  instance.machine) == trace.machines_.end()) {
      trace.machines_.push_back(instance.machine);
    }
  }
  std::sort(trace.machines_.begin(), trace.machines_.end());

  // Attach blocking events.
  for (const auto& event : blocking_events) {
    const ResourceId resource = resources.find(event.resource);
    if (resource == kNoResource) {
      const std::string name(symbols.name(event.resource));
      require_lenient("unknown blocking resource: " + name);
      warn("skipped blocking event on unknown resource: " + name);
      continue;
    }
    if (resources.resource(resource).kind != ResourceKind::kBlocking) {
      const std::string& name = resources.resource(resource).name;
      require_lenient("blocking event on consumable resource: " + name);
      warn("skipped blocking event on consumable resource: " + name);
      continue;
    }
    const auto it = trace.by_path_.find(event.path);
    if (it == trace.by_path_.end()) {
      const std::string path = event.path.to_string();
      require_lenient("blocking event for unknown phase: " + path);
      warn("skipped blocking event for unknown phase: " + path);
      continue;
    }
    auto& instance = trace.instances_[static_cast<std::size_t>(it->second)];
    Interval interval{event.begin, event.end};
    if (interval.begin < instance.begin || interval.end > instance.end) {
      require_lenient("blocking event escapes phase interval: " +
                      instance.path);
      interval.begin = std::max(interval.begin, instance.begin);
      interval.end = std::min(interval.end, instance.end);
      if (interval.empty()) {
        warn("dropped blocking event outside phase interval: " +
             instance.path);
        continue;
      }
      warn("clamped blocking event into phase interval: " + instance.path);
    }
    instance.blocked.push_back(interval);
    trace.blocking_.push_back(BlockingSpan{resource, it->second, interval});
  }
  if (warning_overflow > 0) {
    trace.warnings_.push_back("(+" + std::to_string(warning_overflow) +
                              " more warnings suppressed)");
  }
  // Normalize blocked interval lists (sorted, merged).
  for (auto& instance : trace.instances_) {
    if (instance.blocked.empty()) continue;
    std::sort(instance.blocked.begin(), instance.blocked.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const auto& interval : instance.blocked) {
      if (!merged.empty() && interval.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, interval.end);
      } else {
        merged.push_back(interval);
      }
    }
    instance.blocked = std::move(merged);
  }
  return trace;
}

const PhaseInstance& ExecutionTrace::instance(InstanceId id) const {
  G10_CHECK(id >= 0 && static_cast<std::size_t>(id) < instances_.size());
  return instances_[static_cast<std::size_t>(id)];
}

InstanceId ExecutionTrace::find(std::string_view path) const {
  const auto parsed = trace::parse_phase_path(path);
  if (!parsed) return kNoInstance;
  const auto it = by_path_.find(*parsed);
  // The grammar also admits non-canonical spellings such as "Job.00".
  if (it == by_path_.end() || instance(it->second).path != path) {
    return kNoInstance;
  }
  return it->second;
}

std::size_t ExecutionTrace::degraded_count() const {
  return static_cast<std::size_t>(
      std::count_if(instances_.begin(), instances_.end(),
                    [](const PhaseInstance& i) { return i.degraded; }));
}

}  // namespace g10::core
