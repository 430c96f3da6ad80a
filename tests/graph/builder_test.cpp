#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace g10::graph {
namespace {

TEST(GraphBuilderTest, BuildsSortedCsr) {
  GraphBuilder builder(4);
  builder.add_edge(0, 2);
  builder.add_edge(0, 1);
  builder.add_edge(3, 0);
  const Graph g = builder.build({});
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  const auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.out_degree(3), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphBuilderTest, KeepsParallelEdgesWhenAsked) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  GraphBuilder::Options options;
  options.deduplicate = false;
  const Graph g = builder.build(options);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphBuilderTest, RemovesSelfLoopsByDefault) {
  GraphBuilder builder(3);
  builder.add_edge(1, 1);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(GraphBuilderTest, SymmetrizeAddsReverseEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  GraphBuilder::Options options;
  options.symmetrize = true;
  const Graph g = builder.build(options);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_TRUE(g.undirected());
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);
  EXPECT_THROW(builder.add_edge(5, 0), CheckError);
}

TEST(GraphTest, InNeighborsAreCorrect) {
  GraphBuilder builder(4);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  builder.add_edge(3, 2);
  builder.add_edge(2, 0);
  const Graph g = builder.build({});
  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 3u);
  EXPECT_EQ(in2[0], 0u);
  EXPECT_EQ(in2[1], 1u);
  EXPECT_EQ(in2[2], 3u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 0u);
}

TEST(GraphTest, HasEdgeBinarySearch) {
  GraphBuilder builder(5);
  for (VertexId v = 1; v < 5; ++v) builder.add_edge(0, v);
  const Graph g = builder.build({});
  for (VertexId v = 1; v < 5; ++v) EXPECT_TRUE(g.has_edge(0, v));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(GraphTest, EdgeIdMatchesCsrPosition) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_id(0, 0), 0u);
  EXPECT_EQ(g.edge_id(0, 1), 1u);
  EXPECT_EQ(g.edge_id(1, 0), 2u);
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder(3);
  const Graph g = builder.build({});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.out_neighbors(0).empty());
}

TEST(WeightedGraphTest, WeightsFollowEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 5.0);
  builder.add_edge(0, 1, 2.5);
  builder.add_edge(1, 2, 7.0);
  const Graph g = builder.build({});
  ASSERT_TRUE(g.weighted());
  // Sorted CSR: (0,1)=2.5, (0,2)=5.0, (1,2)=7.0.
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(1), 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(2), 7.0);
  const auto w0 = g.out_weights(0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_DOUBLE_EQ(w0[0], 2.5);
}

TEST(WeightedGraphTest, UnweightedDefaultsToOne) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_FALSE(g.weighted());
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 1.0);
  EXPECT_TRUE(g.out_weights(0).empty());
}

TEST(WeightedGraphTest, SymmetrizeDuplicatesWeight) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 3.5);
  GraphBuilder::Options options;
  options.symmetrize = true;
  const Graph g = builder.build(options);
  EXPECT_DOUBLE_EQ(g.edge_weight(g.edge_id(0, 0)), 3.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(g.edge_id(1, 0)), 3.5);
}

TEST(WeightedGraphTest, DedupKeepsLightestParallelEdge) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 9.0);
  builder.add_edge(0, 1, 2.0);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.0);
}

TEST(WeightedGraphTest, InWeightMatchesOutEdge) {
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 4.0);
  builder.add_edge(1, 2, 6.0);
  const Graph g = builder.build({});
  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 2u);
  EXPECT_DOUBLE_EQ(g.in_weight(2, 0), 4.0);  // from vertex 0
  EXPECT_DOUBLE_EQ(g.in_weight(2, 1), 6.0);  // from vertex 1
}

TEST(WeightedGraphTest, SetWeightsValidatesSize) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  Graph g = builder.build({});
  EXPECT_THROW(g.set_weights({1.0, 2.0}), CheckError);
  g.set_weights({2.5});
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
}

TEST(GraphTest, CsrValidationRejectsBadOffsets) {
  EXPECT_THROW(Graph({0, 2, 1}, {0, 1}, false, "bad"), CheckError);
  EXPECT_THROW(Graph({1, 2}, {0}, false, "bad"), CheckError);
}

// --- Equivalence with a sort-based reference builder ----------------------

struct RefEdge {
  VertexId src;
  VertexId dst;
  double weight;
};

struct RefCsr {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  std::vector<double> weights;  ///< empty when no edge was weighted
};

/// The plain algorithm GraphBuilder::build must agree with: symmetrize, drop
/// self-loops, sort the whole edge list on (src, dst, weight), collapse
/// (src, dst) runs to their first (lightest) edge, then count rows.
RefCsr reference_build(VertexId n, std::vector<RefEdge> edges, bool weighted,
                       const GraphBuilder::Options& options) {
  if (options.symmetrize) {
    const std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; ++i) {
      edges.push_back(RefEdge{edges[i].dst, edges[i].src, edges[i].weight});
    }
  }
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const RefEdge& e) { return e.src == e.dst; });
  }
  std::sort(edges.begin(), edges.end(),
            [](const RefEdge& a, const RefEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.weight < b.weight;
            });
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const RefEdge& a, const RefEdge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  RefCsr csr;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const RefEdge& e : edges) ++csr.offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  for (const RefEdge& e : edges) {
    csr.targets.push_back(e.dst);
    if (weighted) csr.weights.push_back(e.weight);
  }
  return csr;
}

enum class WeightMode { kUnweighted, kWeighted, kMixed };

/// Builds one seeded random edge list through both builders and compares
/// the CSR arrays and weights exactly. Weights come from a small set so
/// parallel edges tie on (dst, weight) as well as differ in weight.
void expect_equivalent(VertexId n, std::size_t edge_count, WeightMode mode,
                       const GraphBuilder::Options& options,
                       std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  std::vector<RefEdge> edges;
  bool weighted = false;
  for (std::size_t i = 0; i < edge_count; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(n));
    const auto dst = static_cast<VertexId>(rng.next_below(n));
    const bool with_weight =
        mode == WeightMode::kWeighted ||
        (mode == WeightMode::kMixed && rng.next_bool(0.5));
    if (with_weight) {
      const double weight = 0.5 * static_cast<double>(rng.next_below(6));
      builder.add_edge(src, dst, weight);
      edges.push_back(RefEdge{src, dst, weight});
      weighted = true;
    } else {
      builder.add_edge(src, dst);
      edges.push_back(RefEdge{src, dst, 1.0});
    }
  }
  const Graph g = builder.build(options);
  const RefCsr ref = reference_build(n, std::move(edges), weighted, options);
  ASSERT_EQ(g.out_offsets(), ref.offsets);
  ASSERT_EQ(g.out_targets(), ref.targets);
  ASSERT_EQ(g.weighted(), !ref.weights.empty());
  for (EdgeIndex e = 0; e < ref.weights.size(); ++e) {
    ASSERT_EQ(g.edge_weight(e), ref.weights[e]) << "edge " << e;
  }
  EXPECT_EQ(g.undirected(), options.symmetrize);
  EXPECT_EQ(builder.pending_edges(), 0u);
}

TEST(GraphBuilderEquivalenceTest, MatchesSortBasedReference) {
  std::uint64_t seed = 1;
  for (const WeightMode mode :
       {WeightMode::kUnweighted, WeightMode::kWeighted, WeightMode::kMixed}) {
    for (const bool symmetrize : {false, true}) {
      for (const bool remove_self_loops : {false, true}) {
        for (const bool deduplicate : {false, true}) {
          GraphBuilder::Options options;
          options.symmetrize = symmetrize;
          options.remove_self_loops = remove_self_loops;
          options.deduplicate = deduplicate;
          // n = 1 (self-loops only), rows mostly empty, heavy parallel
          // edges on a few vertices, and a sparse mid-size graph.
          const struct {
            VertexId n;
            std::size_t edges;
          } shapes[] = {{1, 0}, {1, 9}, {40, 6}, {3, 200}, {64, 500}};
          for (const auto& shape : shapes) {
            SCOPED_TRACE(::testing::Message()
                         << "mode=" << static_cast<int>(mode)
                         << " symmetrize=" << symmetrize
                         << " remove_self_loops=" << remove_self_loops
                         << " deduplicate=" << deduplicate
                         << " n=" << shape.n << " edges=" << shape.edges);
            expect_equivalent(shape.n, shape.edges, mode, options, seed++);
          }
        }
      }
    }
  }
}

TEST(GraphBuilderEquivalenceTest, BuilderIsReusableAfterBuild) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 4.0);
  (void)builder.build({});
  builder.add_edge(2, 1);
  const Graph g = builder.build({});
  EXPECT_FALSE(g.weighted());
  EXPECT_EQ(g.out_offsets(), (std::vector<EdgeIndex>{0, 0, 0, 1}));
}

}  // namespace
}  // namespace g10::graph
