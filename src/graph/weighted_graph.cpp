#include "graph/weighted_graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace fc {

WeightedGraph::WeightedGraph(Graph g, std::vector<Weight> weights)
    : graph_(std::move(g)), weights_(std::move(weights)) {
  if (weights_.size() != graph_.edge_count())
    throw std::invalid_argument("WeightedGraph: weight count != edge count");
  for (const Weight w : weights_)
    if (w < 0) throw std::invalid_argument("WeightedGraph: negative weight");
}

Weight WeightedGraph::total_weight() const {
  Weight sum = 0;
  for (Weight w : weights_) sum += w;
  return sum;
}

std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source) {
  const Graph& graph = g.graph();
  std::vector<Weight> dist(graph.node_count(), kInfWeight);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (ArcId a = graph.arc_begin(v); a < graph.arc_end(v); ++a) {
      const NodeId w = graph.arc_head(a);
      const Weight nd = d + g.arc_weight(a);
      if (nd < dist[w]) {
        dist[w] = nd;
        pq.emplace(nd, w);
      }
    }
  }
  return dist;
}

namespace {

// Union-find with path halving; small enough to keep local to Kruskal.
struct DisjointSets {
  std::vector<NodeId> parent;
  explicit DisjointSets(NodeId n) : parent(n) {
    std::iota(parent.begin(), parent.end(), NodeId{0});
  }
  NodeId find(NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[std::max(a, b)] = std::min(a, b);
    return true;
  }
};

}  // namespace

std::vector<EdgeId> kruskal_msf(const WeightedGraph& g) {
  const Graph& graph = g.graph();
  std::vector<EdgeId> order(graph.edge_count());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return std::make_pair(g.weight(a), a) < std::make_pair(g.weight(b), b);
  });
  DisjointSets sets(graph.node_count());
  std::vector<EdgeId> out;
  out.reserve(graph.node_count() > 0 ? graph.node_count() - 1 : 0);
  for (const EdgeId e : order)
    if (sets.unite(graph.edge_u(e), graph.edge_v(e))) out.push_back(e);
  std::sort(out.begin(), out.end());
  return out;
}

Weight edge_set_weight(const WeightedGraph& g, std::span<const EdgeId> edges) {
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.weight(e);
  return sum;
}

std::vector<std::vector<Weight>> weighted_apsp_exact(const WeightedGraph& g) {
  std::vector<std::vector<Weight>> out(g.graph().node_count());
  for (NodeId v = 0; v < g.graph().node_count(); ++v) out[v] = dijkstra(g, v);
  return out;
}

}  // namespace fc
