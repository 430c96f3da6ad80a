// Folds one characterization result into a DetSummary (DESIGN.md §14).
//
// Every analysis product that reaches a report — the instance tree,
// attributed usage, bottleneck classifications, detected issues — is hashed
// under the phase path (or resource stream) it belongs to. `g10_analyze
// --det-check N` reads and characterizes the same input N times, compares
// the summaries, and names the first divergent phase path when two
// executions disagree.
#pragma once

#include "common/det_hash.hpp"
#include "grade10/pipeline.hpp"

namespace g10::core {

/// Digest of a full characterization: per-instance timing and blocking,
/// per-resource attribution entries, bottleneck classifications, and issue
/// descriptions, all keyed so a divergence names the phase that caused it.
DetSummary fold_characterization(const CharacterizationResult& result,
                                 const ResourceModel& resources);

}  // namespace g10::core
