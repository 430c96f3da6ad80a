// Synthetic graph generators standing in for the Graphalytics datasets used
// in the paper's evaluation (see DESIGN.md §1). All generators are
// deterministic given their seed.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "graph/graph.hpp"

namespace g10::graph {

/// R-MAT / graph500-style power-law generator.
struct RmatParams {
  int scale = 14;            ///< 2^scale vertices
  double edge_factor = 16.0; ///< edges = edge_factor * vertices
  double a = 0.57, b = 0.19, c = 0.19;  ///< quadrant probabilities; d = 1-a-b-c
  bool undirected = false;
  std::uint64_t seed = 1;
};
Graph generate_rmat(const RmatParams& params);

/// Erdős–Rényi G(n, m): m distinct directed edges chosen uniformly.
struct ErdosRenyiParams {
  VertexId vertices = 1 << 14;
  EdgeIndex edges = 1 << 18;
  bool undirected = false;
  std::uint64_t seed = 1;
};
Graph generate_erdos_renyi(const ErdosRenyiParams& params);

/// 2-D grid with 4-neighborhood (road-network-like: bounded degree, large
/// diameter). Always undirected.
Graph generate_grid(VertexId width, VertexId height);

/// Attaches uniform-random edge weights in [lo, hi) — the stand-in for
/// Graphalytics' weighted datasets (SSSP workloads). Deterministic by seed.
/// Symmetrized graphs get symmetric weights: each undirected pair {u, v}
/// carries the same weight in both directions.
void assign_random_weights(Graph& graph, double lo, double hi,
                           std::uint64_t seed);

/// LDBC-Datagen-like clustered power-law graph: vertices are grouped into
/// communities with Zipf-distributed sizes; most edges stay inside a
/// community, the rest connect communities preferentially by degree. This
/// reproduces the community structure that makes CDLP workloads interesting
/// and the degree skew that drives load imbalance.
struct DatagenParams {
  VertexId vertices = 1 << 14;
  double mean_degree = 20.0;
  double intra_community_fraction = 0.7;  ///< fraction of edges inside
  double community_zipf_s = 1.3;          ///< community size skew
  std::uint32_t communities = 256;
  bool undirected = true;
  std::uint64_t seed = 1;
};
Graph generate_datagen_like(const DatagenParams& params);

/// Generator parameters named by a dataset spec, the `--dataset` value of
/// the CLIs: "rmat:<scale>" (scale 1..30, default R-MAT parameters) or
/// "datagen:<vertices>" (vertices 2..2^32-1, default datagen parameters).
using DatasetParams = std::variant<RmatParams, DatagenParams>;

/// Parses a dataset spec. Throws std::invalid_argument with a one-line
/// message for an unknown kind, a non-numeric value or one out of range.
DatasetParams parse_dataset_spec(const std::string& spec);

/// Generates the graph a dataset spec names; throws like
/// parse_dataset_spec.
Graph make_dataset(const std::string& spec);

}  // namespace g10::graph
