#include "graph/builder.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::graph {

GraphBuilder::GraphBuilder(VertexId vertex_count) : n_(vertex_count) {}

void GraphBuilder::add_edge(VertexId src, VertexId dst) {
  G10_CHECK_MSG(src < n_ && dst < n_,
                "edge (" << src << "," << dst << ") out of range, n=" << n_);
  edges_.push_back(Edge{src, dst, 1.0});
}

void GraphBuilder::add_edge(VertexId src, VertexId dst, double weight) {
  G10_CHECK_MSG(src < n_ && dst < n_,
                "edge (" << src << "," << dst << ") out of range, n=" << n_);
  edges_.push_back(Edge{src, dst, weight});
  weighted_ = true;
}

void GraphBuilder::reserve(std::size_t edges) { edges_.reserve(edges); }

Graph GraphBuilder::build(const Options& options) {
  auto edges = std::move(edges_);
  const bool weighted = weighted_;
  edges_.clear();
  weighted_ = false;

  // Counting sort by source. A symmetrized edge counts in both rows; a
  // dropped self-loop counts nowhere.
  const auto kept = [&](const Edge& e) {
    return !options.remove_self_loops || e.src != e.dst;
  };
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (const Edge& e : edges) {
    if (!kept(e)) continue;
    ++offsets[e.src + 1];
    if (options.symmetrize) ++offsets[e.dst + 1];
  }
  for (VertexId v = 0; v < n_; ++v) offsets[v + 1] += offsets[v];

  // offsets[v] is row v's scatter cursor and ends up at the row's end, which
  // is row v+1's start; the backward shift restores the row starts.
  std::vector<VertexId> targets(offsets[n_]);
  std::vector<double> weights(weighted ? targets.size() : 0);
  const auto place = [&](VertexId src, VertexId dst, double weight) {
    const EdgeIndex slot = offsets[src]++;
    targets[slot] = dst;
    if (weighted) weights[slot] = weight;
  };
  for (const Edge& e : edges) {
    if (!kept(e)) continue;
    place(e.src, e.dst, e.weight);
    if (options.symmetrize) place(e.dst, e.src, e.weight);
  }
  for (VertexId v = n_; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;

  // Sort each row on (dst, weight) so dedup keeps the lightest parallel
  // edge, and compact the rows towards the front. Weighted rows are sorted
  // in the spent edge list, which is at least as long as any row unless
  // symmetrize doubled a kept self-loop.
  EdgeIndex out = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const EdgeIndex begin = offsets[v];
    const EdgeIndex end = offsets[v + 1];
    offsets[v] = out;
    if (!weighted) {
      VertexId* const first = targets.data() + begin;
      VertexId* last = targets.data() + end;
      std::sort(first, last);
      if (options.deduplicate) last = std::unique(first, last);
      if (out != begin) std::copy(first, last, targets.data() + out);
      out += static_cast<EdgeIndex>(last - first);
      continue;
    }
    const std::size_t degree = end - begin;
    if (edges.size() < degree) edges.resize(degree);
    for (std::size_t i = 0; i < degree; ++i) {
      edges[i] = Edge{v, targets[begin + i], weights[begin + i]};
    }
    const auto first = edges.begin();
    auto last = first + static_cast<std::ptrdiff_t>(degree);
    std::sort(first, last, [](const Edge& a, const Edge& b) {
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.weight < b.weight;
    });
    if (options.deduplicate) {
      last = std::unique(first, last, [](const Edge& a, const Edge& b) {
        return a.dst == b.dst;
      });
    }
    for (auto it = first; it != last; ++it, ++out) {
      targets[out] = it->dst;
      weights[out] = it->weight;
    }
  }
  offsets[n_] = out;
  // Shrinking in place keeps the dedup slack allocated: freeing a block of
  // this size mid-run raises glibc's mmap threshold and inflates peak RSS.
  targets.resize(out);
  if (weighted) weights.resize(out);

  Graph graph(std::move(offsets), std::move(targets), options.symmetrize,
              options.name);
  if (weighted) graph.set_weights(std::move(weights));
  return graph;
}

}  // namespace g10::graph
