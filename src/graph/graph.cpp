#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::graph {

Graph::Graph(std::vector<EdgeIndex> out_offsets,
             std::vector<VertexId> out_targets, bool undirected,
             std::string name)
    : out_offsets_(std::move(out_offsets)),
      out_targets_(std::move(out_targets)),
      undirected_(undirected),
      name_(std::move(name)) {
  G10_CHECK(!out_offsets_.empty());
  G10_CHECK(out_offsets_.front() == 0);
  G10_CHECK(out_offsets_.back() == out_targets_.size());
  for (std::size_t i = 1; i < out_offsets_.size(); ++i) {
    G10_CHECK_MSG(out_offsets_[i - 1] <= out_offsets_[i],
                  "CSR offsets must be non-decreasing");
  }
}

void Graph::set_weights(std::vector<double> weights) {
  G10_CHECK_MSG(weights.size() == out_targets_.size(),
                "weights must match the edge count");
  weights_ = std::move(weights);
}

void Graph::ensure_in_index() const {
  InIndex& in = *in_;
  if (in.built.load(std::memory_order_acquire)) return;
  std::call_once(in.once, [&] {
    const VertexId n = vertex_count();
    in.offsets.assign(n + 1, 0);
    for (VertexId t : out_targets_) ++in.offsets[t + 1];
    for (VertexId v = 0; v < n; ++v) in.offsets[v + 1] += in.offsets[v];
    in.sources.resize(out_targets_.size());
    in.edge_ids.resize(out_targets_.size());
    std::vector<EdgeIndex> cursor(in.offsets.begin(), in.offsets.end() - 1);
    for (VertexId u = 0; u < n; ++u) {
      for (EdgeIndex e = out_offsets_[u]; e < out_offsets_[u + 1]; ++e) {
        const EdgeIndex slot = cursor[out_targets_[e]]++;
        in.sources[slot] = u;
        in.edge_ids[slot] = e;
      }
    }
    // Sources per target arrive in ascending u order by construction.
    in.built.store(true, std::memory_order_release);
  });
}

double Graph::in_weight(VertexId v, EdgeIndex i) const {
  ensure_in_index();
  return edge_weight(in_->edge_ids[in_->offsets[v] + i]);
}

std::span<const VertexId> Graph::in_neighbors(VertexId v) const {
  ensure_in_index();
  return {in_->sources.data() + in_->offsets[v],
          in_->sources.data() + in_->offsets[v + 1]};
}

EdgeIndex Graph::in_degree(VertexId v) const {
  ensure_in_index();
  return in_->offsets[v + 1] - in_->offsets[v];
}

std::span<const EdgeIndex> Graph::in_edge_ids(VertexId v) const {
  ensure_in_index();
  return {in_->edge_ids.data() + in_->offsets[v],
          in_->edge_ids.data() + in_->offsets[v + 1]};
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace g10::graph
