// Micro-benchmarks of the Grade10 analysis pipeline itself: demand
// estimation, upsampling, and per-slice attribution throughput as the trace
// grows. These bound the overhead Grade10 adds on top of a monitored run
// (requirement R4 is about the *monitoring* cost; this shows the offline
// analysis is cheap too).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "grade10/attribution/attributor.hpp"
#include "grade10/attribution/demand.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "grade10/trace/resource_trace.hpp"

namespace g10::core {
namespace {

struct Fixture {
  ExecutionModel execution;
  ResourceModel resources;
  AttributionRuleSet rules;
  std::vector<trace::PhaseEventRecord> events;
  std::vector<trace::MonitoringSampleRecord> samples;

  /// steps sequential steps, each with `threads` concurrent leaves of 100ns.
  explicit Fixture(int steps, int threads) {
    const PhaseTypeId job = execution.add_root("Job");
    const PhaseTypeId step = execution.add_child(job, "Step", true);
    const PhaseTypeId work = execution.add_child(step, "Work");
    const ResourceId cpu = resources.add_consumable("cpu", 8.0);
    rules.set(work, cpu, AttributionRule::exact(1.0));

    Rng rng(7);
    const TimeNs step_len = 100;
    events.push_back({trace::PhaseEventRecord::Kind::Begin,
                      *trace::parse_phase_path("Job.0"), 0, -1});
    for (int s = 0; s < steps; ++s) {
      const TimeNs begin = s * step_len;
      const std::string prefix = "Job.0/Step." + std::to_string(s);
      events.push_back({trace::PhaseEventRecord::Kind::Begin,
                        *trace::parse_phase_path(prefix), begin, -1});
      for (int t = 0; t < threads; ++t) {
        const std::string path = prefix + "/Work." + std::to_string(t);
        const TimeNs end = begin + rng.next_int(50, 100);
        events.push_back({trace::PhaseEventRecord::Kind::Begin,
                          *trace::parse_phase_path(path), begin, 0});
        events.push_back({trace::PhaseEventRecord::Kind::End,
                          *trace::parse_phase_path(path), end, 0});
      }
      events.push_back({trace::PhaseEventRecord::Kind::End,
                        *trace::parse_phase_path(prefix), begin + step_len,
                        -1});
    }
    events.push_back({trace::PhaseEventRecord::Kind::End,
                      *trace::parse_phase_path("Job.0"), steps * step_len,
                      -1});
    // Monitoring at 4-slice quanta (slice = 10ns).
    for (TimeNs t = 40; t <= steps * step_len; t += 40) {
      samples.push_back({trace::SymbolTable::global().intern("cpu"), 0, t,
                         rng.next_double(0.0, 8.0)});
    }
  }
};

void BM_DemandEstimation(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 8);
  const auto trace = ExecutionTrace::build(fixture.execution,
                                           fixture.resources, fixture.events,
                                           {});
  const TimesliceGrid grid(10);
  for (auto _ : state) {
    auto demand =
        estimate_demand(fixture.resources, fixture.rules, trace, grid);
    benchmark::DoNotOptimize(demand);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_DemandEstimation)->Arg(64)->Arg(256)->Arg(1024);

void BM_Upsample(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 8);
  const auto trace = ExecutionTrace::build(fixture.execution,
                                           fixture.resources, fixture.events,
                                           {});
  const TimesliceGrid grid(10);
  const auto demand =
      estimate_demand(fixture.resources, fixture.rules, trace, grid);
  const auto monitored =
      ResourceTrace::build(fixture.resources, fixture.samples);
  for (auto _ : state) {
    auto up = upsample(demand[0], monitored.series()[0], grid);
    benchmark::DoNotOptimize(up);
  }
  state.SetItemsProcessed(state.iterations() * demand[0].slice_count);
}
BENCHMARK(BM_Upsample)->Arg(64)->Arg(256)->Arg(1024);

void BM_FullAttribution(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 8);
  const auto trace = ExecutionTrace::build(fixture.execution,
                                           fixture.resources, fixture.events,
                                           {});
  const TimesliceGrid grid(10);
  const auto demand =
      estimate_demand(fixture.resources, fixture.rules, trace, grid);
  const auto monitored =
      ResourceTrace::build(fixture.resources, fixture.samples);
  for (auto _ : state) {
    auto usage = attribute_usage(demand, monitored, grid);
    benchmark::DoNotOptimize(usage);
  }
  state.SetItemsProcessed(state.iterations() * demand[0].slice_count);
}
BENCHMARK(BM_FullAttribution)->Arg(64)->Arg(256)->Arg(1024);

void BM_TraceBuild(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto trace = ExecutionTrace::build(fixture.execution, fixture.resources,
                                       fixture.events, {});
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.events.size()));
}
BENCHMARK(BM_TraceBuild)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace g10::core

BENCHMARK_MAIN();
