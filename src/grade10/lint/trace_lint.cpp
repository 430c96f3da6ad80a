#include "grade10/lint/trace_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.hpp"

namespace g10::lint {

namespace {

using trace::kGlobalMachine;
using trace::MachineId;

/// One phase instance reassembled from its BEGIN/END events.
struct Instance {
  std::string key;  ///< the rendered path, for findings and ordering
  bool has_begin = false;
  bool has_end = false;
  TimeNs begin = 0;
  TimeNs end = 0;
  MachineId begin_machine = kGlobalMachine;
  MachineId end_machine = kGlobalMachine;

  bool complete() const { return has_begin && has_end; }
};

class TraceLinter {
 public:
  TraceLinter(const core::ModelDescription& model,
              const trace::ParsedLog& log, const TraceLintOptions& options,
              std::string_view filename)
      : model_(model), log_(log), options_(options), file_(filename) {}

  LintReport run() {
    collect_instances();
    sort_instances();
    check_instances();
    check_sibling_overlap();
    check_blocking_events();
    check_fault_provenance();
    check_samples();
    return std::move(report_);
  }

 private:
  Location at(std::string context) const {
    return Location{file_, 0, std::move(context)};
  }

  /// Adds a finding once per (rule, context); repeat offenders of the same
  /// kind (e.g. every instance of one unknown type) would otherwise flood
  /// the report.
  void add_once(std::string rule_id, Severity severity, std::string context,
                std::string message) {
    if (!reported_.insert(rule_id + "\x1f" + context).second) return;
    report_.add(std::move(rule_id), severity, at(std::move(context)),
                std::move(message));
  }

  void collect_instances() {
    for (const trace::PhaseEventRecord& event : log_.phase_events) {
      auto [it, inserted] = instances_.try_emplace(event.path);
      Instance& inst = it->second;
      if (inserted) inst.key = event.path.to_string();
      if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
        if (inst.has_begin) {
          report_.add("trace-duplicate-begin", Severity::kError, at(inst.key),
                      "phase instance begins more than once");
          continue;
        }
        inst.has_begin = true;
        inst.begin = event.time;
        inst.begin_machine = event.machine;
      } else {
        if (inst.has_end) {
          report_.add("trace-duplicate-end", Severity::kError, at(inst.key),
                      "phase instance ends more than once");
          continue;
        }
        inst.has_end = true;
        inst.end = event.time;
        inst.end_machine = event.machine;
      }
      machines_.insert(event.machine);
    }
  }

  /// Every check below reports instances in rendered-path order, so
  /// findings do not depend on hash order.
  void sort_instances() {
    sorted_.reserve(instances_.size());
    // srclint: unordered-ok(sorted by rendered path right below)
    for (const auto& entry : instances_) sorted_.push_back(&entry);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const InstanceEntry* a, const InstanceEntry* b) {
                return a->second.key < b->second.key;
              });
  }

  void check_instances() {
    for (const InstanceEntry* entry : sorted_) {
      const Instance& inst = entry->second;
      const std::string& key = inst.key;
      if (inst.has_begin && !inst.has_end) {
        report_.add("trace-unbalanced-begin", Severity::kError, at(key),
                    "phase instance begins but never ends (truncated log?)");
      } else if (inst.has_end && !inst.has_begin) {
        report_.add("trace-unbalanced-end", Severity::kError, at(key),
                    "phase instance ends without ever beginning");
      }
      if (inst.complete() && inst.end < inst.begin) {
        report_.add("trace-nonmonotonic-time", Severity::kError, at(key),
                    "phase instance ends at " + std::to_string(inst.end) +
                        "ns, before its begin at " +
                        std::to_string(inst.begin) + "ns");
      }
      if (inst.complete() && inst.begin_machine != inst.end_machine) {
        report_.add("trace-machine-mismatch", Severity::kWarning, at(key),
                    "BEGIN reports machine " +
                        std::to_string(inst.begin_machine) +
                        " but END reports machine " +
                        std::to_string(inst.end_machine));
      }
      check_against_model(entry->first, inst);
    }
  }

  void check_against_model(const trace::PathRef& path, const Instance& inst) {
    if (path.empty()) return;
    const core::PhaseTypeId type_id = model_.execution.find(path.leaf().type);
    if (type_id == core::kNoPhaseType) {
      const std::string leaf_type(symbols_.name(path.leaf().type));
      add_once("trace-unknown-phase-type", Severity::kError, leaf_type,
               "phase type '" + leaf_type + "' is not in the model");
      return;
    }
    const std::string& leaf_type = model_.execution.type(type_id).name;
    if (path.depth() == 1) {
      if (type_id != model_.execution.root()) {
        add_once("trace-hierarchy-mismatch", Severity::kError, leaf_type,
                 "phase type '" + leaf_type +
                     "' appears at the top of a path but is not the "
                     "model's root");
      }
      return;
    }
    const core::PhaseTypeId parent_id =
        model_.execution.find(path[path.depth() - 2].type);
    if (parent_id != core::kNoPhaseType &&
        model_.execution.type(type_id).parent != parent_id) {
      const std::string& parent_type = model_.execution.type(parent_id).name;
      add_once("trace-hierarchy-mismatch", Severity::kError,
               parent_type + "/" + leaf_type,
               "the model does not declare '" + parent_type +
                   "' as the parent of '" + leaf_type + "'");
    }
    const trace::PathRef parent_path = path.parent();
    const auto parent_it = instances_.find(parent_path);
    if (parent_it == instances_.end()) {
      add_once("trace-missing-parent", Severity::kError, inst.key,
               "parent instance '" + parent_path.to_string() +
                   "' never appears in the log");
      return;
    }
    const Instance& parent = parent_it->second;
    if (inst.complete() && parent.complete() &&
        (inst.begin < parent.begin || inst.end > parent.end)) {
      report_.add("trace-child-escapes-parent", Severity::kError, at(inst.key),
                  "instance runs [" + std::to_string(inst.begin) + ", " +
                      std::to_string(inst.end) +
                      ")ns, outside its parent's [" +
                      std::to_string(parent.begin) + ", " +
                      std::to_string(parent.end) + ")ns");
    }
  }

  void check_sibling_overlap() {
    // Instances of a REPEATED type under one parent must run sequentially
    // (paper: supersteps); concurrent instances of non-repeated types
    // (one worker per machine) are expected.
    std::map<std::pair<std::string, std::string_view>,
             std::vector<const Instance*>>
        groups;
    for (const InstanceEntry* entry : sorted_) {
      const auto& [path, inst] = *entry;
      if (!inst.complete() || path.empty()) continue;
      const core::PhaseTypeId id = model_.execution.find(path.leaf().type);
      if (id == core::kNoPhaseType || !model_.execution.type(id).repeated) {
        continue;
      }
      groups[{path.parent().to_string(), model_.execution.type(id).name}]
          .push_back(&inst);
    }
    for (auto& [group, members] : groups) {
      std::sort(members.begin(), members.end(),
                [](const Instance* a, const Instance* b) {
                  return a->begin < b->begin;
                });
      for (std::size_t i = 1; i < members.size(); ++i) {
        const Instance& prev = *members[i - 1];
        const Instance& next = *members[i];
        if (next.begin < prev.end) {
          report_.add(
              "trace-overlapping-siblings", Severity::kError,
              at(next.key),
              "repeated instance overlaps sibling '" + prev.key +
                  "' (begins at " +
                  std::to_string(next.begin) + "ns, before its end at " +
                  std::to_string(prev.end) + "ns)");
        }
      }
    }
  }

  void check_machine(MachineId machine, std::string_view context) {
    if (machine == kGlobalMachine || machines_.count(machine) > 0) return;
    add_once("trace-orphan-machine", Severity::kWarning,
             "machine " + std::to_string(machine),
             "machine " + std::to_string(machine) + " appears in " +
                 std::string(context) + " but in no phase event");
  }

  void check_blocking_events() {
    for (const trace::BlockingEventRecord& event : log_.blocking_events) {
      const core::ResourceId resource = model_.resources.find(event.resource);
      if (resource == core::kNoResource) {
        const std::string name(symbols_.name(event.resource));
        add_once("trace-blocking-unknown-resource", Severity::kError, name,
                 "blocking resource '" + name + "' is not in the model");
      } else if (model_.resources.resource(resource).kind ==
                 core::ResourceKind::kConsumable) {
        const std::string& name = model_.resources.resource(resource).name;
        add_once("trace-blocking-consumable-resource", Severity::kWarning,
                 name,
                 "resource '" + name +
                     "' is CONSUMABLE; blocked time is only accounted for "
                     "blocking resources");
      }
      check_machine(event.machine, "a blocking event");
      const auto it = instances_.find(event.path);
      if (it == instances_.end()) {
        const std::string key = event.path.to_string();
        add_once("trace-blocking-unknown-phase", Severity::kError, key,
                 "blocking event names phase instance '" + key +
                     "', which never appears in the log");
        continue;
      }
      const Instance& inst = it->second;
      if (inst.complete() &&
          (event.begin < inst.begin || event.end > inst.end)) {
        report_.add("trace-blocking-outside-phase", Severity::kError,
                    at(inst.key),
                    "blocking interval [" + std::to_string(event.begin) +
                        ", " + std::to_string(event.end) +
                        ")ns escapes the phase's [" +
                        std::to_string(inst.begin) + ", " +
                        std::to_string(inst.end) + ")ns");
      }
    }
  }

  void check_fault_provenance() {
    // Retry/Recovery blocked time only appears in runs that had faults
    // injected, and those runs stamp the spec into a META "faults" record.
    // Blocked fault time without that provenance usually means a stripped
    // or hand-assembled log whose fault attribution can't be cross-checked.
    const auto spec = log_.meta_value("faults");
    if (spec.has_value() && !trim(*spec).empty()) return;
    const trace::Symbol retry = symbols_.intern("Retry");
    const trace::Symbol recovery = symbols_.intern("Recovery");
    for (const trace::BlockingEventRecord& event : log_.blocking_events) {
      if (event.resource != retry && event.resource != recovery) continue;
      const std::string name(symbols_.name(event.resource));
      add_once("trace-fault-blocking-without-spec", Severity::kWarning, name,
               "log records '" + name +
                   "' blocked time but no 'faults' META record names the "
                   "injected fault spec");
    }
  }

  void check_samples() {
    // Keyed on the interned name, so series are checked in name order.
    std::map<std::pair<std::string_view, MachineId>,
             std::vector<const trace::MonitoringSampleRecord*>>
        series;
    // Samples arrive series by series, so remembering the last name skips
    // almost every symbol-table lookup. Symbol 0 is the empty name.
    trace::Symbol last = 0;
    std::string_view name;
    for (const trace::MonitoringSampleRecord& sample : log_.samples) {
      if (sample.resource != last) name = symbols_.name(last = sample.resource);
      // Built only for a finding: this loop runs once per sample.
      const auto context = [&sample, name] {
        return std::string(name) + "@" + std::to_string(sample.machine);
      };
      const core::ResourceId resource = model_.resources.find(sample.resource);
      if (resource == core::kNoResource) {
        add_once("trace-sample-unknown-resource", Severity::kError,
                 std::string(name),
                 "monitored resource '" + std::string(name) +
                     "' is not in the model");
      } else if (model_.resources.resource(resource).kind ==
                 core::ResourceKind::kBlocking) {
        add_once("trace-sample-blocking-resource", Severity::kError,
                 std::string(name),
                 "resource '" + std::string(name) +
                     "' is BLOCKING and has no consumption rate to sample");
      } else {
        const double capacity = model_.resources.resource(resource).capacity;
        if (sample.value > capacity * options_.capacity_slack) {
          add_once("trace-sample-over-capacity", Severity::kWarning, context(),
                   "sample value " + format_fixed(sample.value, 3) +
                       " exceeds the capacity " + format_fixed(capacity, 3) +
                       " of '" + std::string(name) + "' (unit mismatch?)");
        }
      }
      if (sample.value < 0.0) {
        add_once("trace-sample-negative", Severity::kError, context(),
                 "sample reports a negative rate " +
                     format_fixed(sample.value, 3));
      }
      check_machine(sample.machine, "a monitoring sample");
      series[{name, sample.machine}].push_back(&sample);
    }
    for (const auto& [key, samples] : series) {
      const std::string context =
          std::string(key.first) + "@" + std::to_string(key.second);
      for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i]->time <= samples[i - 1]->time) {
          add_once("trace-sample-nonmonotonic", Severity::kError, context,
                   "series repeats or decreases its sample time at " +
                       std::to_string(samples[i]->time) + "ns");
          break;
        }
      }
      check_sample_gaps(context, samples);
    }
  }

  void check_sample_gaps(
      const std::string& context,
      const std::vector<const trace::MonitoringSampleRecord*>& samples) {
    if (samples.size() < options_.min_gap_samples) return;
    std::vector<TimeNs> periods;
    periods.reserve(samples.size() - 1);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const TimeNs gap = samples[i]->time - samples[i - 1]->time;
      if (gap <= 0) return;  // non-monotonic series, reported above
      periods.push_back(gap);
    }
    std::vector<TimeNs> sorted = periods;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const TimeNs median = sorted[sorted.size() / 2];
    const auto threshold = static_cast<double>(median) *
                           options_.sample_gap_factor;
    const TimeNs worst = *std::max_element(periods.begin(), periods.end());
    if (static_cast<double>(worst) > threshold) {
      add_once("trace-sample-gap", Severity::kWarning, context,
               "series has a " + std::to_string(worst) +
                   "ns gap against a median period of " +
                   std::to_string(median) + "ns (dropped samples?)");
    }
  }

  const core::ModelDescription& model_;
  const trace::ParsedLog& log_;
  TraceLintOptions options_;
  std::string file_;
  LintReport report_;
  trace::SymbolTable& symbols_ = trace::SymbolTable::global();
  std::unordered_map<trace::PathRef, Instance, trace::PathRefHash> instances_;
  using InstanceEntry = std::pair<const trace::PathRef, Instance>;
  std::vector<const InstanceEntry*> sorted_;  ///< by rendered path
  std::set<MachineId> machines_;
  std::set<std::string> reported_;
};

}  // namespace

LintReport lint_trace(const core::ModelDescription& model,
                      const trace::ParsedLog& log,
                      const TraceLintOptions& options,
                      std::string_view filename) {
  return TraceLinter(model, log, options, filename).run();
}

LintReport lint_parse_errors(const trace::ParseResult& result,
                             std::string_view filename, bool binary_trace) {
  LintReport report;
  const std::string file(filename);
  const char* rule = binary_trace ? "trace-binary-corrupt-block"
                                  : "trace-syntax";
  for (const trace::ParseError& error : result.errors) {
    report.add(rule, Severity::kError,
               Location{file, error.line_number, error.line}, error.message);
  }
  if (result.errors.empty() && result.error) {
    report.add(rule, Severity::kError,
               Location{file, result.error->line_number, result.error->line},
               result.error->message);
  }
  if (result.error_count > result.errors.size()) {
    report.add(rule, Severity::kError, Location{file, 0, ""},
               std::to_string(result.error_count - result.errors.size()) +
                   (binary_trace
                        ? " additional corrupt block(s) beyond the error cap"
                        : " additional malformed line(s) beyond the error "
                          "cap"));
  }
  return report;
}

}  // namespace g10::lint
