#include "grade10/pipeline.hpp"

#include <utility>

#include "common/check.hpp"

namespace g10::core {

CheckedCharacterization characterize_checked(
    const CharacterizationInput& input) {
  CheckedCharacterization out;
  auto& errors = out.status.errors;
  if (input.model == nullptr) errors.push_back("missing execution model");
  if (input.resources == nullptr) errors.push_back("missing resource model");
  if (input.rules == nullptr) errors.push_back("missing attribution rules");
  if (!errors.empty()) return out;

  const TimesliceGrid grid(input.config.timeslice);
  CharacterizationResult result;
  result.grid = grid;
  try {
    result.trace = ExecutionTrace::build(*input.model, *input.resources,
                                         input.phase_events,
                                         input.blocking_events,
                                         input.trace_options);
  } catch (const CheckError& e) {
    errors.push_back(std::string("trace ingestion failed: ") + e.what());
    return out;
  }
  out.status.warnings = result.trace.warnings();
  try {
    result.monitored = ResourceTrace::build(*input.resources, input.samples);
    result.demand =
        estimate_demand(*input.resources, *input.rules, result.trace, grid);
    result.usage = attribute_usage(result.demand, result.monitored, grid);
    result.bottlenecks =
        detect_bottlenecks(result.usage, result.trace, grid, input.config);
    IssueDetector detector(*input.model, *input.resources, result.trace, grid,
                           input.config);
    result.issues = detector.detect(result.usage, result.bottlenecks);
    result.baseline_makespan = detector.baseline_makespan();
  } catch (const CheckError& e) {
    // The trace itself is intact; return it so callers can still inspect
    // the run's structure even though the characterization is partial.
    errors.push_back(std::string("characterization failed: ") + e.what());
    out.result = std::move(result);
    return out;
  }
  out.result = std::move(result);
  return out;
}

CharacterizationResult characterize(const CharacterizationInput& input) {
  G10_CHECK(input.model != nullptr);
  G10_CHECK(input.resources != nullptr);
  G10_CHECK(input.rules != nullptr);
  CheckedCharacterization checked = characterize_checked(input);
  G10_CHECK_MSG(checked.status.ok() && checked.result.has_value(),
                (checked.status.errors.empty()
                     ? std::string("characterization failed")
                     : checked.status.errors.front()));
  return std::move(*checked.result);
}

}  // namespace g10::core
