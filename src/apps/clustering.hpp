#pragma once
// Constant-diameter clustering (paper §4.1).
//
// Each node becomes a *center* independently with probability
// p = (c ln n)/δ; with minimum degree δ every node then has a center
// neighbour w.h.p. Every non-center picks one announcing neighbour as its
// center s(v) (we take the smallest announcing id — deterministic). The
// cluster graph Gc has one node per center and an edge between clusters
// C_i, C_j whenever some graph edge joins them. Gc has Õ(n/δ) nodes, which
// is what makes the Õ(n/δ)-round APSP simulation possible.
//
// Robustness beyond the w.h.p. statement: a node with no announcing
// neighbour promotes itself to a center (adds O(1) extra clusters in the
// tail event; tests cover it).

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace fc::apps {

struct Clustering {
  std::vector<NodeId> centers;          // cluster index -> center node
  std::vector<std::uint32_t> cluster_of;  // node -> cluster index
  std::vector<NodeId> s;                // node -> its center s(v)
  Graph cluster_graph;                  // Gc
  std::uint64_t rounds = 0;             // announce + s(v)-exchange rounds
  std::uint32_t self_promoted = 0;      // nodes without a sampled neighbour

  std::uint32_t cluster_count() const {
    return static_cast<std::uint32_t>(centers.size());
  }
};

/// The engine knobs of the protocol run, plus the sampling parameters.
struct ClusteringOptions : congest::RunOptions {
  double c = 3.0;  // the sampling constant in p = c ln n / δ
  std::uint64_t seed = 1;
};

/// Build the clustering with real CONGEST rounds for the announcement and
/// the s(v) exchange (2 rounds), then assemble Gc. The gather of Gc
/// adjacency at centers (Lemma 6's O(k)-round step) is charged by the
/// caller (see cluster_apsp).
Clustering build_clustering(const Graph& g, std::uint32_t min_degree,
                            const ClusteringOptions& opts = {});

}  // namespace fc::apps
