// Trace-replay simulator (paper §III-F).
//
// Replays a recorded execution trace under a simplified system model: every
// leaf phase has a fixed duration, there are no delays between phases, and
// the schedule obeys (a) the execution model's precedence edges (matched by
// instance index, e.g. WorkerPrepare.2 before WorkerCompute.2), (b) the
// sequential order of repeated types, (c) per-parent concurrency limits
// (thread slots), and (d) containment (children run inside their parent).
// Wait-type phases (barrier waits) are given zero duration — their recorded
// length is slack that the simulator re-derives from the schedule.
//
// Issue detectors call simulate() with adjusted leaf durations to obtain
// optimistic makespans ("how much faster would the run be if X were
// fixed?").
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"
#include "grade10/model/execution_model.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10::core {

struct ReplaySchedule {
  std::vector<TimeNs> start;  ///< indexed by InstanceId
  std::vector<TimeNs> end;
  TimeNs makespan = 0;

  /// Critical-path bookkeeping: for a non-leaf, the child whose simulated
  /// end determined the parent's end; for any instance, the sibling (or
  /// slot predecessor) whose end determined this instance's start, or
  /// kNoInstance when the parent's start was binding.
  std::vector<InstanceId> binding_child;
  std::vector<InstanceId> binding_pred;
};

class ReplaySimulator {
 public:
  ReplaySimulator(const ExecutionModel& model, const ExecutionTrace& trace);

  /// Leaf durations to replay with; indexed by InstanceId (entries for
  /// non-leaves are ignored). Wait-type leaves are forced to zero.
  ReplaySchedule simulate(const std::vector<DurationNs>& leaf_durations) const;

  /// The recorded leaf durations (the identity replay input).
  std::vector<DurationNs> recorded_durations() const;

  /// Makespan of the identity replay; cached on first use is not needed —
  /// callers typically hold on to it.
  TimeNs baseline_makespan() const;

  /// The chain of leaf instances whose durations determine the makespan,
  /// in execution order. Gaps covered by parent tails (e.g. barrier sync
  /// costs) are not represented by a leaf.
  std::vector<InstanceId> critical_leaves(const ReplaySchedule& schedule) const;

 private:
  /// The children of one type under one parent, in children_[begin, end)
  /// sorted by instance index.
  struct SiblingGroup {
    PhaseTypeId type = kNoPhaseType;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  TimeNs schedule_instance(InstanceId id, TimeNs start,
                           const std::vector<DurationNs>& durations,
                           ReplaySchedule& out) const;

  const ExecutionModel& model_;
  const ExecutionTrace& trace_;
  /// The replay's inputs that do not depend on the leaf durations, built
  /// once so each simulate() only walks them. Instance `id`'s sibling
  /// groups are groups_[group_begin_[id], group_begin_[id + 1]), in the
  /// topological order of their types; children of a type outside that
  /// order are not replayed.
  std::vector<SiblingGroup> groups_;
  std::vector<std::size_t> group_begin_;
  std::vector<InstanceId> children_;
  /// Per instance: the parent's own work after its last recorded child
  /// (e.g. barrier sync cost).
  std::vector<DurationNs> tail_;
};

}  // namespace g10::core
