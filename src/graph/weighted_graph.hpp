#pragma once
// Weighted overlay on Graph: edge weights live in a parallel array indexed
// by EdgeId, so all topology code (BFS trees, decompositions, the simulator)
// is shared between the weighted and unweighted worlds.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace fc {

using Weight = std::int64_t;
inline constexpr Weight kInfWeight = static_cast<Weight>(1) << 62;

class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Wrap an already-built graph. `weights[e]` is the weight of EdgeId e
  /// (Graph::from_edges keeps input positions as EdgeIds, so weights listed
  /// alongside its edge list line up directly); throws
  /// std::invalid_argument when the count mismatches the edge count or any
  /// weight is negative.
  WeightedGraph(Graph g, std::vector<Weight> weights);

  const Graph& graph() const { return graph_; }
  Weight weight(EdgeId e) const { return weights_[e]; }
  Weight arc_weight(ArcId a) const { return weights_[graph_.arc_edge(a)]; }
  std::span<const Weight> weights() const { return weights_; }

  /// Sum of all edge weights.
  Weight total_weight() const;

 private:
  Graph graph_;
  std::vector<Weight> weights_;
};

/// Single-source shortest paths with nonnegative weights (binary heap
/// Dijkstra). Unreachable nodes get kInfWeight.
std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source);

/// Minimum spanning forest by Kruskal, EdgeIds sorted ascending. Ties break
/// on the lower EdgeId, which makes the key (weight, EdgeId) a total order:
/// the forest is the UNIQUE minimum under it, so the distributed Borůvka in
/// apps/mst must reproduce this exact edge set (not just its weight).
std::vector<EdgeId> kruskal_msf(const WeightedGraph& g);

/// Sum of the weights of the listed edges.
Weight edge_set_weight(const WeightedGraph& g, std::span<const EdgeId> edges);

/// Exact weighted APSP by running Dijkstra from every node. O(n m log n);
/// intended as ground truth for tests and small benchmark instances.
std::vector<std::vector<Weight>> weighted_apsp_exact(const WeightedGraph& g);

}  // namespace fc
