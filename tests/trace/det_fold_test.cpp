// fold_run / fold_samples: the engine-facing half of the determinism
// oracle (DESIGN.md §14). A real engine run folded twice must digest
// identically, and a seeded, injected perturbation of one event must be
// pinpointed at exactly that event's phase path — the property
// `g10_run --det-check` turns into an exit code.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/det_fold.hpp"

namespace g10::trace {
namespace {

graph::Graph small_graph() {
  graph::DatagenParams params;
  params.vertices = 256;
  params.mean_degree = 6;
  params.seed = 7;
  return generate_datagen_like(params);
}

RunArtifacts run_engine() {
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 2;
  cfg.cluster.machine.cores = 4;
  cfg.seed = 2020;
  return engine::PregelEngine(cfg).run(small_graph(),
                                       algorithms::PageRank(3));
}

DetSummary digest(const RunArtifacts& artifacts) {
  DetHasher hasher;
  fold_run(hasher, artifacts);
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 100 * kMillisecond, artifacts.makespan);
  fold_samples(hasher, samples);
  return hasher.summary();
}

TEST(DetFold, RepeatedEngineRunsDigestIdentically) {
  const DetSummary first = digest(run_engine());
  const DetSummary second = digest(run_engine());
  EXPECT_EQ(first.overall, second.overall);
  EXPECT_FALSE(first_divergence(first, second).has_value());
  EXPECT_GT(first.phases.size(), 10u);
  EXPECT_GT(first.total_folds, 100u);
}

TEST(DetFold, InjectedEventPerturbationNamesItsPath) {
  const RunArtifacts baseline = run_engine();
  RunArtifacts perturbed = run_engine();
  // Nudge one phase event in the middle of the stream by a nanosecond —
  // the kind of drift a scheduling-dependent engine bug would produce.
  ASSERT_FALSE(perturbed.phase_events.empty());
  PhaseEventRecord& victim =
      perturbed.phase_events[perturbed.phase_events.size() / 2];
  victim.time += 1;
  std::string victim_path;
  victim.path.append_to(victim_path);

  const auto divergence =
      first_divergence(digest(baseline), digest(perturbed));
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->path, victim_path);
}

TEST(DetFold, VertexValueDriftIsCaught) {
  const RunArtifacts baseline = run_engine();
  RunArtifacts perturbed = run_engine();
  ASSERT_FALSE(perturbed.vertex_values.empty());
  // One ULP of drift in one vertex — bitwise folding must see it.
  perturbed.vertex_values.front() =
      std::nextafter(perturbed.vertex_values.front(), 1e9);
  const auto divergence =
      first_divergence(digest(baseline), digest(perturbed));
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->path, "run/vertex_values");
}

TEST(DetFold, DroppedSampleIsCaught) {
  const RunArtifacts artifacts = run_engine();
  auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 100 * kMillisecond, artifacts.makespan);
  ASSERT_GT(samples.size(), 1u);

  DetHasher full;
  fold_samples(full, samples);
  samples.pop_back();
  DetHasher truncated;
  fold_samples(truncated, samples);

  const auto divergence =
      first_divergence(full.summary(), truncated.summary());
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->path.substr(0, 8), "monitor/");
}

}  // namespace
}  // namespace g10::trace
