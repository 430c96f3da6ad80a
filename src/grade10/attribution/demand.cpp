#include "grade10/attribution/demand.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::core {

namespace {

/// Per-slice active fraction of one leaf.
LeafDemand make_leaf_demand(const PhaseInstance& leaf,
                            const AttributionRule& rule,
                            const TimesliceGrid& grid) {
  LeafDemand demand;
  demand.instance = leaf.id;
  demand.rule = rule;
  demand.first_slice = grid.slice_of(leaf.begin);
  const TimesliceIndex last = leaf.end > leaf.begin
                                  ? grid.slice_count(leaf.end) - 1
                                  : demand.first_slice;
  demand.active_fraction.assign(
      static_cast<std::size_t>(last - demand.first_slice + 1), 0.0);
  const auto active = active_intervals(leaf.begin, leaf.end, leaf.blocked);
  const double slice_len = static_cast<double>(grid.slice_duration());
  for (const auto& interval : active) {
    if (interval.end <= interval.begin) continue;
    // First and last overlapped slices computed arithmetically; every slice
    // strictly between them is fully covered and contributes exactly 1.0
    // (overlap == slice_duration), so no per-slice overlap math is needed.
    const TimesliceIndex first = grid.slice_of(interval.begin);
    const TimesliceIndex final = grid.slice_count(interval.end) - 1;
    G10_ASSERT_MSG(first >= demand.first_slice && final <= last,
                   "active interval escapes its leaf's slice range");
    if (first == final) {
      demand.active_fraction[static_cast<std::size_t>(
          first - demand.first_slice)] +=
          static_cast<double>(interval.length()) / slice_len;
      continue;
    }
    demand.active_fraction[static_cast<std::size_t>(
        first - demand.first_slice)] +=
        static_cast<double>(grid.end_of(first) - interval.begin) / slice_len;
    for (TimesliceIndex s = first + 1; s < final; ++s) {
      demand.active_fraction[static_cast<std::size_t>(
          s - demand.first_slice)] += 1.0;
    }
    demand.active_fraction[static_cast<std::size_t>(
        final - demand.first_slice)] +=
        static_cast<double>(interval.end - grid.start_of(final)) / slice_len;
  }
  return demand;
}

/// Fills one (resource, machine) matrix with the demand of its leaves.
void fill_matrix(DemandMatrix& matrix, const ResourceModel& resources,
                 const AttributionRuleSet& rules, const ExecutionTrace& trace,
                 const TimesliceGrid& grid, TimesliceIndex slice_count) {
  matrix.slice_count = slice_count;
  matrix.exact.assign(static_cast<std::size_t>(slice_count), 0.0);
  matrix.variable.assign(static_cast<std::size_t>(slice_count), 0.0);
  const bool global =
      resources.resource(matrix.resource).scope == ResourceScope::kGlobal;
  for (const InstanceId leaf_id : trace.leaves()) {
    const PhaseInstance& leaf = trace.instance(leaf_id);
    if (!global && leaf.machine != matrix.machine) continue;
    const AttributionRule rule = rules.get(leaf.type, matrix.resource);
    if (rule.is_none()) continue;
    if (leaf.duration() <= 0) continue;
    LeafDemand demand = make_leaf_demand(leaf, rule, grid);
    for (std::size_t i = 0; i < demand.active_fraction.size(); ++i) {
      const double frac = demand.active_fraction[i];
      if (frac <= 0.0) continue;
      const auto slice = static_cast<std::size_t>(demand.first_slice) + i;
      if (rule.is_exact()) {
        matrix.exact[slice] += rule.amount * frac;
      } else {
        matrix.variable[slice] += rule.amount * frac;
      }
    }
    matrix.leaves.push_back(std::move(demand));
  }
}

}  // namespace

std::vector<DemandMatrix> estimate_demand(const ResourceModel& resources,
                                          const AttributionRuleSet& rules,
                                          const ExecutionTrace& trace,
                                          const TimesliceGrid& grid) {
  const TimesliceIndex slice_count =
      trace.end_time() > 0 ? grid.slice_count(trace.end_time()) : 0;

  std::vector<DemandMatrix> matrices;
  for (ResourceId r = 0; r < static_cast<ResourceId>(resources.resource_count());
       ++r) {
    const Resource& resource = resources.resource(r);
    if (resource.kind != ResourceKind::kConsumable) continue;
    if (resource.scope == ResourceScope::kGlobal) {
      DemandMatrix matrix;
      matrix.resource = r;
      matrix.machine = trace::kGlobalMachine;
      matrix.capacity = resource.capacity;
      matrices.push_back(std::move(matrix));
    } else {
      for (const trace::MachineId machine : trace.machines()) {
        DemandMatrix matrix;
        matrix.resource = r;
        matrix.machine = machine;
        matrix.capacity = resource.capacity;
        matrices.push_back(std::move(matrix));
      }
    }
  }

  for (DemandMatrix& matrix : matrices) {
    fill_matrix(matrix, resources, rules, trace, grid, slice_count);
  }
  return matrices;
}

}  // namespace g10::core
