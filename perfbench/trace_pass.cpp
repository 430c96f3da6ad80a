// perfbench_trace — one traced pass of the g10_run → g10_analyze pipeline.
//
//   perfbench_trace --engine pregel|gas --dataset rmat:<scale>
//                   --workers N --iterations K --monitor-ms MS
//                   --trace-format text|binary --timeslice-ms MS
//                   --seed S --out <dir> [--sync-bug]
//
// Runs both halves in one process by calling each layer's public functions
// the way tools/run_workload.cpp and tools/analyze.cpp do, with every stage
// function at its default arguments (no thread pool, default reader
// options). A span is recorded around each call: name, parent, start, end
// (steady_clock nanoseconds from process start). The two half spans, "run"
// and "analyze", also cover the destruction of the graph, the engine
// artifacts and the characterization, so their self time includes it.
// Output checks run inside "check.*" spans, so they count as children and
// never as a half's self time.
//
// Writes <dir>/run.log or <dir>/run.g10t, <dir>/model.g10 and
// <dir>/report.txt (the report sections g10_analyze prints), and prints one
// JSON object on stdout: spans, per-layer counters, the determinism digests
// and the reference-value check. Exit code 0 on success, 2 on bad
// arguments, 1 on any other failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/programs.hpp"
#include "algorithms/reference.hpp"
#include "common/det_hash.hpp"
#include "common/strings.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/diagnostics.hpp"
#include "grade10/report/phase_profile.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/det_fold.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace {

using namespace g10;

using Clock = std::chrono::steady_clock;

/// In-memory span log, written out once at the end of the pass.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      now_ns(), -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }

  /// Runs `f` inside a span named `name` and returns its result.
  template <typename F>
  auto time(std::string name, F&& f) {
    const int id = begin(std::move(name));
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      end(id);
    } else {
      auto result = f();
      end(id);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes a span when the scope ends; declare it before the locals whose
/// destruction the span should cover.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

struct Args {
  std::string engine;
  std::string dataset;
  int workers = 4;
  int cores = 8;  // g10_run's default
  int iterations = 20;
  std::uint64_t seed = 2020;
  DurationNs monitor_interval = 400 * kMillisecond;
  DurationNs timeslice = 50 * kMillisecond;  // g10_analyze's default
  bool sync_bug = false;
  bool binary = false;
  std::string out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--sync-bug") {
      args.sync_bug = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (arg == "--engine") {
      args.engine = value;
    } else if (arg == "--dataset") {
      args.dataset = value;
    } else if (arg == "--workers") {
      args.workers = static_cast<int>(parse_int(value).value_or(0));
    } else if (arg == "--iterations") {
      args.iterations = static_cast<int>(parse_int(value).value_or(0));
    } else if (arg == "--seed") {
      const auto seed = parse_int(value);
      if (!seed) return std::nullopt;
      args.seed = static_cast<std::uint64_t>(*seed);
    } else if (arg == "--monitor-ms") {
      args.monitor_interval = parse_int(value).value_or(0) * kMillisecond;
    } else if (arg == "--timeslice-ms") {
      args.timeslice = parse_int(value).value_or(0) * kMillisecond;
    } else if (arg == "--trace-format") {
      if (value != "text" && value != "binary") return std::nullopt;
      args.binary = value == "binary";
    } else if (arg == "--out") {
      args.out = value;
    } else {
      return std::nullopt;
    }
  }
  if ((args.engine != "pregel" && args.engine != "gas") || args.out.empty() ||
      args.workers <= 0 || args.iterations <= 0 ||
      args.monitor_interval <= 0 || args.timeslice <= 0) {
    return std::nullopt;
  }
  return args;
}

/// The R-MAT dataset exactly as g10_run builds it (its --seed does not
/// reach the generator, so the graph is fixed per scale).
graph::Graph make_dataset(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.size() != 2 || parts[0] != "rmat") {
    throw std::runtime_error("unsupported dataset spec: " + spec);
  }
  graph::RmatParams params;
  params.scale = static_cast<int>(parse_int(parts[1]).value_or(14));
  return graph::generate_rmat(params);
}

struct EngineRun {
  trace::RunArtifacts artifacts;
  core::FrameworkModel framework;
};

EngineRun run_engine(const Args& args, const graph::Graph& graph) {
  const algorithms::PageRank pagerank(args.iterations);
  EngineRun out;
  if (args.engine == "pregel") {
    engine::PregelConfig cfg;
    cfg.cluster.machine_count = args.workers;
    cfg.cluster.machine.cores = args.cores;
    cfg.seed = args.seed;
    out.artifacts = engine::PregelEngine(cfg).run(graph, pagerank);
    core::PregelModelParams params;
    params.cores = args.cores;
    params.threads = cfg.effective_threads();
    params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    out.framework = core::make_pregel_model(params);
  } else {
    engine::GasConfig cfg;
    cfg.cluster.machine_count = args.workers;
    cfg.cluster.machine.cores = args.cores;
    cfg.seed = args.seed;
    cfg.sync_bug.enabled = args.sync_bug;
    out.artifacts = engine::GasEngine(cfg).run(graph, pagerank);
    core::GasModelParams params;
    params.cores = args.cores;
    params.threads = cfg.effective_threads();
    params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    out.framework = core::make_gas_model(params);
  }
  return out;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Everything the pass reports besides its spans.
struct Findings {
  std::map<std::string, double> counts;
  std::string run_digest;
  std::string characterization_digest;
  double reference_max_error = 0.0;
  bool reference_ok = false;
};

void run_half(const Args& args, const std::string& trace_path,
              Tracer& tracer, Findings& findings) {
  const ScopedSpan half(tracer, "run");
  const graph::Graph graph = tracer.time(
      "graph.generate", [&] { return make_dataset(args.dataset); });
  const EngineRun run =
      tracer.time("engine.run", [&] { return run_engine(args, graph); });
  const trace::RunArtifacts& artifacts = run.artifacts;
  const auto samples = tracer.time("monitor.sample", [&] {
    return monitor::sample_ground_truth(
        artifacts.ground_truth, args.monitor_interval, artifacts.makespan);
  });
  tracer.time("trace.write", [&] {
    if (args.binary) {
      trace::ParsedLog log;
      log.phase_events = artifacts.phase_events;
      log.blocking_events = artifacts.blocking_events;
      log.samples = samples;
      std::string error;
      if (!trace::write_g10t_file(trace_path, log, {}, &error)) {
        throw std::runtime_error(error);
      }
    } else {
      std::vector<char> buffer(1 << 20);
      std::ofstream log;
      log.rdbuf()->pubsetbuf(buffer.data(),
                             static_cast<std::streamsize>(buffer.size()));
      log.open(trace_path);
      trace::write_log(log, artifacts.phase_events, artifacts.blocking_events,
                       samples, {});
    }
  });
  {
    std::ofstream model(args.out + "/model.g10");
    core::write_model(model, run.framework.execution, run.framework.resources,
                      run.framework.tuned_rules);
  }

  tracer.time("check.reference", [&] {
    const std::vector<double> expected =
        algorithms::pagerank_reference(graph, args.iterations);
    findings.reference_ok = expected.size() == artifacts.vertex_values.size();
    for (std::size_t i = 0; findings.reference_ok && i < expected.size();
         ++i) {
      const double error = std::abs(artifacts.vertex_values[i] - expected[i]);
      findings.reference_max_error =
          std::max(findings.reference_max_error, error);
      findings.reference_ok = error <= 1e-9;
    }
  });
  tracer.time("check.run_digest", [&] {
    DetHasher hasher;
    trace::fold_run(hasher, artifacts);
    trace::fold_samples(hasher, samples);
    findings.run_digest = hex(hasher.summary().overall);
  });

  auto& counts = findings.counts;
  counts["graph.edges"] = static_cast<double>(graph.edge_count());
  counts["engine.phase_events"] =
      static_cast<double>(artifacts.phase_events.size());
  counts["engine.remote_bytes"] = artifacts.comm.remote_bytes_total;
  counts["engine.batch_flushes"] =
      static_cast<double>(artifacts.comm.batch_flushes);
  counts["engine.sim_makespan_s"] = to_seconds(artifacts.makespan);
  counts["monitor.samples"] = static_cast<double>(samples.size());
  counts["trace.bytes"] =
      static_cast<double>(std::filesystem::file_size(trace_path));
}

void analyze_half(const Args& args, const std::string& trace_path,
                  Tracer& tracer, Findings& findings) {
  const ScopedSpan half(tracer, "analyze");
  const std::string model_path = args.out + "/model.g10";
  const std::string model_text = read_file(model_path);
  std::istringstream model_stream(model_text);
  const core::ModelParseResult model = core::parse_model(model_stream);
  if (!model.ok()) throw std::runtime_error("model.g10 does not parse");
  const core::ModelDescription& description = model.model;

  const trace::ParseResult log = tracer.time(
      "trace.read", [&] { return trace::read_trace_file(trace_path); });
  if (!log.ok()) throw std::runtime_error(trace_path + " does not parse");

  const lint::LintReport preflight = tracer.time("lint.preflight", [&] {
    lint::LintReport report = lint::lint_model_text(model_text, model_path);
    report.merge(lint::lint_trace(description, log.log, {}, trace_path));
    return report;
  });

  // The configuration g10_analyze --lenient runs with.
  core::AnalysisConfig config;
  config.timeslice = args.timeslice;
  config.min_issue_impact = 0.01;
  core::ExecutionTrace::Options trace_options;
  trace_options.lenient = true;

  core::CharacterizationResult result;
  result.grid = TimesliceGrid(config.timeslice);
  const TimesliceGrid& grid = result.grid;
  result.trace = tracer.time("exec_trace.build", [&] {
    return core::ExecutionTrace::build(
        description.execution, description.resources, log.log.phase_events,
        log.log.blocking_events, trace_options);
  });
  result.monitored = tracer.time("resource_trace.build", [&] {
    return core::ResourceTrace::build(description.resources, log.log.samples);
  });
  result.demand = tracer.time("demand.estimate", [&] {
    return core::estimate_demand(description.resources, description.rules,
                                 result.trace, grid);
  });
  result.usage = tracer.time("attribution.attribute", [&] {
    return core::attribute_usage(result.demand, result.monitored, grid);
  });
  result.bottlenecks = tracer.time("bottleneck.detect", [&] {
    return core::detect_bottlenecks(result.usage, result.trace, grid, config);
  });
  tracer.time("issues.detect", [&] {
    core::IssueDetector detector(description.execution, description.resources,
                                 result.trace, grid, config);
    result.issues = detector.detect(result.usage, result.bottlenecks);
    result.baseline_makespan = detector.baseline_makespan();
  });

  const std::string report = tracer.time("report.render", [&] {
    std::ostringstream os;
    core::render_profile(os, result.trace, description.resources,
                         result.usage, result.grid);
    os << '\n';
    core::render_bottlenecks(os, description.resources, result.bottlenecks);
    os << '\n';
    core::render_issues(os, result.issues);
    os << '\n';
    const auto profile = core::build_phase_profile(
        result.trace, result.usage, result.bottlenecks, result.grid);
    core::render_phase_profile(os, description.execution,
                               description.resources, profile);
    os << '\n';
    const core::ReplaySimulator simulator(description.execution,
                                          result.trace);
    const core::ReplaySchedule schedule =
        simulator.simulate(simulator.recorded_durations());
    core::render_critical_path(os, description.execution, result.trace,
                               simulator, schedule);
    os << '\n';
    core::render_diagnostics(os, description.resources,
                             core::compute_resource_diagnostics(result.usage),
                             core::compute_machine_skew(result.usage));
    return std::move(os).str();
  });

  tracer.time("check.characterization_digest", [&] {
    findings.characterization_digest = hex(
        core::fold_characterization(result, description.resources).overall);
    std::ofstream(args.out + "/report.txt", std::ios::binary) << report;
  });

  auto& counts = findings.counts;
  counts["trace.records"] = static_cast<double>(
      log.log.phase_events.size() + log.log.blocking_events.size() +
      log.log.samples.size());
  counts["lint.errors"] = static_cast<double>(preflight.error_count());
  counts["lint.warnings"] = static_cast<double>(preflight.warning_count());
  counts["exec_trace.instances"] =
      static_cast<double>(result.trace.instances().size());
  counts["issues.count"] = static_cast<double>(result.issues.size());
  counts["report.bytes"] = static_cast<double>(report.size());
}

void print_json(const Tracer& tracer, const Findings& findings) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    os << (i ? "," : "") << "[\"" << spans[i].name << "\","
       << spans[i].parent << ',' << spans[i].start_ns << ','
       << spans[i].end_ns << ']';
  }
  os << "],\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : findings.counts) {
    os << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  os << "},\"run_digest\":\"" << findings.run_digest
     << "\",\"characterization_digest\":\""
     << findings.characterization_digest
     << "\",\"reference_ok\":" << (findings.reference_ok ? "true" : "false")
     << ",\"reference_max_error\":" << findings.reference_max_error << "}\n";
  std::cout << os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_trace --engine pregel|gas --dataset "
                 "rmat:<scale> --workers N --iterations K --monitor-ms MS "
                 "--trace-format text|binary --timeslice-ms MS --seed S "
                 "--out <dir> [--sync-bug]\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(args->out);
    const std::string trace_path =
        args->out + (args->binary ? "/run.g10t" : "/run.log");
    Tracer tracer;
    Findings findings;
    run_half(*args, trace_path, tracer, findings);
    analyze_half(*args, trace_path, tracer, findings);
    print_json(tracer, findings);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
