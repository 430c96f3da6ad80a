// Quickstart: the Grade10 pipeline on a tiny hand-written workload.
//
// This is the minimal end-to-end usage of the public API:
//   1. describe the framework with an ExecutionModel and a ResourceModel;
//   2. give attribution rules (or rely on the implicit Variable default);
//   3. feed phase events + monitoring samples from your system's logs;
//   4. characterize() and render the results.
//
// The workload here is two "worker" phases inside one job: worker 0 works
// for 100 ms, worker 1 for 40 ms, and the machine's CPU is monitored at a
// coarse 40 ms interval. Grade10 upsamples the CPU trace to 10 ms slices,
// attributes it to the workers, and reports the imbalance.
#include <iostream>

#include "grade10/pipeline.hpp"
#include "grade10/report/report.hpp"

using namespace g10;
using namespace g10::core;

int main() {
  // 1. Execution model: Job -> { Worker (two concurrent instances) }.
  ExecutionModel model;
  const PhaseTypeId job = model.add_root("Job");
  const PhaseTypeId worker = model.add_child(job, "Worker");

  // 2. Resource model: one 4-core CPU per machine.
  ResourceModel resources;
  const ResourceId cpu = resources.add_consumable("cpu", 4.0);

  // 3. Attribution rules: each worker phase uses exactly one core.
  AttributionRuleSet rules;
  rules.set(worker, cpu, AttributionRule::exact(1.0));

  // 4. A run's logs: phase begin/end events and monitoring samples.
  const auto path = [](const char* text) {
    return *trace::parse_phase_path(text);
  };
  std::vector<trace::PhaseEventRecord> events{
      {trace::PhaseEventRecord::Kind::Begin, path("Job.0"), 0, -1},
      {trace::PhaseEventRecord::Kind::Begin, path("Job.0/Worker.0"), 0, 0},
      {trace::PhaseEventRecord::Kind::Begin, path("Job.0/Worker.1"), 0, 0},
      {trace::PhaseEventRecord::Kind::End, path("Job.0/Worker.1"),
       40 * kMillisecond, 0},
      {trace::PhaseEventRecord::Kind::End, path("Job.0/Worker.0"),
       100 * kMillisecond, 0},
      {trace::PhaseEventRecord::Kind::End, path("Job.0"), 100 * kMillisecond,
       -1},
  };
  const trace::Symbol cpu_name = trace::SymbolTable::global().intern("cpu");
  std::vector<trace::MonitoringSampleRecord> samples{
      {cpu_name, 0, 40 * kMillisecond, 2.0},   // both workers busy
      {cpu_name, 0, 80 * kMillisecond, 1.0},   // only worker 0 left
      {cpu_name, 0, 100 * kMillisecond, 1.0},
  };

  // 5. Characterize.
  CharacterizationInput input;
  input.model = &model;
  input.resources = &resources;
  input.rules = &rules;
  input.phase_events = events;
  input.samples = samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  const CharacterizationResult result = characterize(input);

  render_profile(std::cout, result.trace, resources, result.usage,
                 result.grid);
  std::cout << '\n';
  render_bottlenecks(std::cout, resources, result.bottlenecks);
  std::cout << '\n';
  render_issues(std::cout, result.issues);

  std::cout << "\nThe imbalance issue shows the job could finish in ~70 ms "
               "if the two workers split the work evenly.\n";
  return 0;
}
