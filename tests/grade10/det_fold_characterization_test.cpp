// fold_characterization: the analysis-side half of the determinism oracle
// (DESIGN.md §14). The whole CharacterizationResult — instance tree,
// attribution, bottlenecks, issues — digests to the same per-phase-path
// hashes on every run, which is exactly the comparison
// `g10_analyze --det-check N` runs. The overall digests of two committed
// goldens are pinned, so a change to any analysis output shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/trace_reader.hpp"

namespace g10::core {
namespace {

struct Workload {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> samples;
  FrameworkModel model;
};

const Workload& workload() {
  static const Workload w = [] {
    graph::DatagenParams params;
    params.vertices = 512;
    params.mean_degree = 8;
    params.seed = 21;
    const graph::Graph graph = generate_datagen_like(params);

    engine::PregelConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 4;
    const engine::PregelEngine engine(cfg);

    Workload out;
    out.artifacts = engine.run(graph, algorithms::PageRank(4));
    out.samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                               50 * kMillisecond,
                                               out.artifacts.makespan);
    PregelModelParams model_params;
    model_params.cores = cfg.cluster.machine.cores;
    model_params.threads = cfg.effective_threads();
    model_params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    out.model = make_pregel_model(model_params);
    return out;
  }();
  return w;
}

DetSummary digest() {
  const Workload& w = workload();
  CharacterizationInput input;
  input.model = &w.model.execution;
  input.resources = &w.model.resources;
  input.rules = &w.model.tuned_rules;
  input.phase_events = w.artifacts.phase_events;
  input.blocking_events = w.artifacts.blocking_events;
  input.samples = w.samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  return fold_characterization(characterize(input), w.model.resources);
}

/// Overall digest of a committed golden trace characterized against its
/// example model, with the configuration
/// `g10_analyze --timeslice-ms 10 --min-impact 0 --det-check N` uses.
std::uint64_t golden_digest(const std::string& model_stem,
                            const std::string& log_name) {
  std::ifstream model_file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" +
                           model_stem + ".g10");
  EXPECT_TRUE(model_file.is_open()) << model_stem;
  const ModelParseResult model = parse_model(model_file);
  EXPECT_TRUE(model.ok()) << model_stem;
  const trace::ParseResult log = trace::read_trace_file(
      std::string(G10_GOLDEN_TRACE_DIR) + "/" + log_name);
  EXPECT_TRUE(log.ok()) << log_name;

  CharacterizationInput input;
  input.model = &model.model.execution;
  input.resources = &model.model.resources;
  input.rules = &model.model.rules;
  input.phase_events = log.log.phase_events;
  input.blocking_events = log.log.blocking_events;
  input.samples = log.log.samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  return fold_characterization(characterize(input), model.model.resources)
      .overall;
}

TEST(DetFoldCharacterization, DigestCoversTheWholeResult) {
  const DetSummary summary = digest();
  EXPECT_GT(summary.phases.size(), 10u);
  EXPECT_GT(summary.total_folds, 1000u);
  bool has_usage = false;
  bool has_saturation = false;
  for (const DetSummary::Entry& entry : summary.phases) {
    has_usage |= entry.path.compare(0, 6, "usage/") == 0;
    has_saturation |= entry.path.compare(0, 11, "saturation/") == 0;
  }
  EXPECT_TRUE(has_usage);
  EXPECT_TRUE(has_saturation);
}

TEST(DetFoldCharacterization, PinnedDigestOfCommittedGoldens) {
  EXPECT_EQ(golden_digest("pregel", "pregel_pagerank_d512_s99.log"),
            0x85da7309a54cfeefULL);
  EXPECT_EQ(golden_digest("gas", "gas_pagerank_d512_s99.log"),
            0x2ad8b8aca58a4814ULL);
}

TEST(DetFoldCharacterization, RepeatedSerialRunsAreStable) {
  EXPECT_FALSE(first_divergence(digest(), digest()).has_value());
}

}  // namespace
}  // namespace g10::core
