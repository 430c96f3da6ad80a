// The lazy reverse CSR of a const Graph is built exactly once even when
// several threads ask for it at the same time, as they do when the ensemble
// shares one cached dataset across executor threads. Run under TSan this
// test fails on a racy build; without TSan it still checks every thread
// saw the complete index.
#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace g10::graph {
namespace {

static_assert(std::is_nothrow_move_constructible_v<Graph>);
static_assert(std::is_nothrow_move_assignable_v<Graph>);

Graph make_graph() {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8.0;
  params.seed = 7;
  return generate_rmat(params);
}

/// Order-sensitive digest of the whole reverse index, read through the
/// public accessors.
std::uint64_t in_index_digest(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    mix(g.in_degree(v));
    for (const VertexId u : g.in_neighbors(v)) mix(u);
    for (const EdgeIndex e : g.in_edge_ids(v)) mix(e);
  }
  return h;
}

/// The same digest computed by brute force from the out-CSR alone.
std::uint64_t expected_digest(const Graph& g) {
  std::vector<std::vector<std::pair<VertexId, EdgeIndex>>> in(
      g.vertex_count());
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    const auto nbrs = g.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      in[nbrs[i]].emplace_back(u, g.edge_id(u, i));
    }
  }
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& sources : in) {
    mix(sources.size());
    for (const auto& [u, e] : sources) mix(u);
    for (const auto& [u, e] : sources) mix(e);
  }
  return h;
}

TEST(GraphConcurrencyTest, ConcurrentFirstUseBuildsInIndexOnce) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    const Graph g = make_graph();  // fresh: no reverse index yet
    const std::uint64_t expected = expected_digest(g);
    std::atomic<int> waiting{kThreads};
    std::vector<std::uint64_t> digests(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Release every thread at once so their first uses overlap.
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        digests[static_cast<std::size_t>(t)] = in_index_digest(g);
      });
    }
    for (auto& thread : threads) thread.join();
    for (const std::uint64_t digest : digests) EXPECT_EQ(digest, expected);
  }
}

TEST(GraphConcurrencyTest, CopiesAndMovesKeepAnsweringInQueries) {
  Graph original = make_graph();
  const std::uint64_t expected = expected_digest(original);
  const Graph copy = original;  // shares the (still unbuilt) index
  std::thread reader([&copy, expected] {
    EXPECT_EQ(in_index_digest(copy), expected);
  });
  EXPECT_EQ(in_index_digest(original), expected);
  reader.join();
  const Graph moved = std::move(original);
  EXPECT_EQ(in_index_digest(moved), expected);
}

}  // namespace
}  // namespace g10::graph
