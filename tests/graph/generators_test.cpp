#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>

#include "common/det_hash.hpp"
#include "graph/degree_stats.hpp"

namespace g10::graph {
namespace {

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 5;
  const Graph a = generate_rmat(params);
  const Graph b = generate_rmat(params);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.out_targets(), b.out_targets());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
}

TEST(RmatTest, DifferentSeedsDiffer) {
  RmatParams params;
  params.scale = 8;
  params.seed = 5;
  const Graph a = generate_rmat(params);
  params.seed = 6;
  const Graph b = generate_rmat(params);
  EXPECT_NE(a.out_targets(), b.out_targets());
}

TEST(RmatTest, HasExpectedScaleAndSkew) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 16;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.vertex_count(), 1024u);
  // Dedup removes some edges but most should survive.
  EXPECT_GT(g.edge_count(), 1024u * 8);
  const DegreeStats stats = compute_degree_stats(g);
  // Power-law-ish: heavily skewed out-degree distribution.
  EXPECT_GT(stats.gini, 0.4);
  EXPECT_GT(static_cast<double>(stats.max_out), 8.0 * stats.mean_out);
}

/// FNV-1a over the CSR arrays: pins a generated graph bit for bit.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t hash = kFnvOffsetBasis;
  hash = fnv1a64(hash, g.out_offsets().data(),
                 g.out_offsets().size() * sizeof(EdgeIndex));
  hash = fnv1a64(hash, g.out_targets().data(),
                 g.out_targets().size() * sizeof(VertexId));
  return hash;
}

// The digests pin the generator output across refactors of the RNG, the
// bit loop and the CSR builder; every benchmark trace depends on them.
TEST(RmatTest, Scale14DigestIsPinned) {
  RmatParams params;
  params.scale = 14;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.edge_count(), 228762u);
  EXPECT_EQ(csr_digest(g), 0x9a6729352972649aull);
}

TEST(RmatTest, Scale16DigestIsPinned) {
  RmatParams params;
  params.scale = 16;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.edge_count(), 955326u);
  EXPECT_EQ(csr_digest(g), 0x18c294e718063078ull);
}

TEST(RmatTest, UndirectedScale10DigestIsPinned) {
  RmatParams params;
  params.scale = 10;
  params.undirected = true;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.edge_count(), 21090u);
  EXPECT_EQ(csr_digest(g), 0xf09e23475229b4daull);
}

TEST(ErdosRenyiTest, ExactEdgeBudgetBeforeDedup) {
  ErdosRenyiParams params;
  params.vertices = 512;
  params.edges = 4096;
  const Graph g = generate_erdos_renyi(params);
  EXPECT_EQ(g.vertex_count(), 512u);
  // A few duplicates collapse; the count stays close to requested.
  EXPECT_GT(g.edge_count(), 3900u);
  EXPECT_LE(g.edge_count(), 4096u);
  const DegreeStats stats = compute_degree_stats(g);
  EXPECT_LT(stats.gini, 0.3);  // near-uniform degrees
}

TEST(ErdosRenyiTest, Deterministic) {
  ErdosRenyiParams params;
  params.vertices = 128;
  params.edges = 512;
  params.seed = 77;
  EXPECT_EQ(generate_erdos_renyi(params).out_targets(),
            generate_erdos_renyi(params).out_targets());
}

TEST(GridTest, StructureIsCorrect) {
  const Graph g = generate_grid(4, 3);
  EXPECT_EQ(g.vertex_count(), 12u);
  // Undirected 4-neighborhood: 2*w*h - w - h edges, doubled by symmetrize.
  EXPECT_EQ(g.edge_count(), 2u * (2 * 4 * 3 - 4 - 3));
  // Corner has degree 2, center degree 4.
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(5), 4u);  // (1,1)
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(DatagenTest, DeterministicAndClustered) {
  DatagenParams params;
  params.vertices = 2048;
  params.mean_degree = 10;
  params.seed = 11;
  const Graph a = generate_datagen_like(params);
  const Graph b = generate_datagen_like(params);
  EXPECT_EQ(a.out_targets(), b.out_targets());
  EXPECT_EQ(a.vertex_count(), 2048u);
  EXPECT_GT(a.edge_count(), 2048u * 3);
  EXPECT_TRUE(a.undirected());
}

TEST(DatagenTest, DegreeSkewPresent) {
  DatagenParams params;
  params.vertices = 4096;
  params.mean_degree = 16;
  const Graph g = generate_datagen_like(params);
  const DegreeStats stats = compute_degree_stats(g);
  EXPECT_GT(static_cast<double>(stats.max_out), 5.0 * stats.mean_out);
}

TEST(RandomWeightsTest, DeterministicSymmetricAndInRange) {
  DatagenParams params;
  params.vertices = 1024;
  params.mean_degree = 8;
  Graph a = generate_datagen_like(params);
  Graph b = generate_datagen_like(params);
  assign_random_weights(a, 1.0, 10.0, 42);
  assign_random_weights(b, 1.0, 10.0, 42);
  ASSERT_TRUE(a.weighted());
  for (EdgeIndex e = 0; e < a.edge_count(); ++e) {
    ASSERT_DOUBLE_EQ(a.edge_weight(e), b.edge_weight(e));
    ASSERT_GE(a.edge_weight(e), 1.0);
    ASSERT_LT(a.edge_weight(e), 10.0);
  }
  // Symmetric: weight(u->v) == weight(v->u) on the symmetrized graph.
  for (VertexId u = 0; u < a.vertex_count(); ++u) {
    const auto nbrs = a.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      const auto back = a.out_neighbors(v);
      for (EdgeIndex j = 0; j < back.size(); ++j) {
        if (back[j] == u) {
          ASSERT_DOUBLE_EQ(a.edge_weight(a.edge_id(u, i)),
                           a.edge_weight(a.edge_id(v, j)));
        }
      }
    }
  }
}

TEST(RandomWeightsTest, DifferentSeedsDiffer) {
  RmatParams params;
  params.scale = 8;
  Graph a = generate_rmat(params);
  Graph b = generate_rmat(params);
  assign_random_weights(a, 0.0, 1.0, 1);
  assign_random_weights(b, 0.0, 1.0, 2);
  bool any_diff = false;
  for (EdgeIndex e = 0; e < a.edge_count(); ++e) {
    if (a.edge_weight(e) != b.edge_weight(e)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DatasetSpecTest, ParsesRmatAndDatagen) {
  const auto rmat = parse_dataset_spec("rmat:12");
  ASSERT_TRUE(std::holds_alternative<RmatParams>(rmat));
  EXPECT_EQ(std::get<RmatParams>(rmat).scale, 12);
  const auto datagen = parse_dataset_spec("datagen:4096");
  ASSERT_TRUE(std::holds_alternative<DatagenParams>(datagen));
  EXPECT_EQ(std::get<DatagenParams>(datagen).vertices, 4096u);
  EXPECT_EQ(std::get<RmatParams>(parse_dataset_spec("rmat:1")).scale, 1);
  EXPECT_EQ(std::get<RmatParams>(parse_dataset_spec("rmat:30")).scale, 30);
  EXPECT_EQ(std::get<DatagenParams>(parse_dataset_spec("datagen:2")).vertices,
            2u);
  EXPECT_EQ(std::get<DatagenParams>(parse_dataset_spec("datagen:4294967295"))
                .vertices,
            0xFFFFFFFFu);
}

TEST(DatasetSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "rmat", "rmat:", "rmat:abc", "rmat:14x", "rmat:0", "rmat:31",
        "rmat:-1", "rmat:14:1", "datagen:xyz", "datagen:1", "datagen:0",
        "datagen:4294967296", "mystery:9"}) {
    EXPECT_THROW(parse_dataset_spec(spec), std::invalid_argument) << spec;
  }
}

TEST(DatasetSpecTest, MakeDatasetMatchesTheGenerator) {
  RmatParams params;
  params.scale = 8;
  EXPECT_EQ(csr_digest(make_dataset("rmat:8")),
            csr_digest(generate_rmat(params)));
  EXPECT_THROW(make_dataset("rmat:abc"), std::invalid_argument);
}

class GeneratorScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorScaleTest, RmatVertexCountMatchesScale) {
  RmatParams params;
  params.scale = GetParam();
  params.edge_factor = 4;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.vertex_count(), 1u << GetParam());
  EXPECT_GT(g.edge_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleTest,
                         ::testing::Values(4, 6, 8, 10, 12));

}  // namespace
}  // namespace g10::graph
