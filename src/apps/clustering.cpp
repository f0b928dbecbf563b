#include "apps/clustering.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "graph/properties.hpp"

namespace fc::apps {

namespace {

constexpr std::uint32_t kTagCenter = 10;
constexpr std::uint32_t kTagMyCenter = 11;

/// Two-round protocol: round 0 centers announce; round 1 every node sends
/// s(v) to all neighbours so both endpoints of every edge learn each
/// other's cluster (the raw material of Gc).
class ClusterProtocol : public congest::Algorithm {
 public:
  ClusterProtocol(const Graph& g, const std::vector<std::uint8_t>& is_center)
      : is_center_(is_center) {
    s_.assign(g.node_count(), kInvalidNode);
    neighbor_center_.resize(g.node_count());
  }

  std::string name() const override { return "clustering"; }

  void start(congest::Context& ctx) override {
    // Every node must run rounds 1 (pick s(v), possibly with an empty
    // inbox) and 2 (collect neighbour centers — a degree-0 node collects
    // nothing but still has to count itself finished), so each round
    // re-arms a wakeup for the next: the protocol is a fixed two-round
    // schedule, not a message-driven one.
    ctx.request_wakeup();
    if (!is_center_[ctx.id()]) return;
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {kTagCenter, ctx.id(), 0});
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if (ctx.round() == 1) {
      ctx.request_wakeup();
      // Pick s(v): self if center, else the smallest announcing neighbour,
      // else self-promote.
      if (is_center_[v]) {
        s_[v] = v;
      } else {
        NodeId best = kInvalidNode;
        for (const auto& in : ctx.inbox())
          if (in.msg.tag == kTagCenter)
            best = std::min(best, static_cast<NodeId>(in.msg.a));
        s_[v] = best == kInvalidNode ? v : best;
      }
      for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
        ctx.send(a, {kTagMyCenter, s_[v], 0});
    } else if (ctx.round() == 2) {
      auto& list = neighbor_center_[v];
      list.reserve(ctx.inbox().size());
      for (const auto& in : ctx.inbox())
        if (in.msg.tag == kTagMyCenter)
          list.push_back(static_cast<NodeId>(in.msg.a));
      finished_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool done() const override {
    return finished_.load(std::memory_order_relaxed) == s_.size();
  }

  const std::vector<std::uint8_t>& is_center_;
  std::vector<NodeId> s_;
  std::vector<std::vector<NodeId>> neighbor_center_;
  std::atomic<std::size_t> finished_{0};
};

}  // namespace

Clustering build_clustering(const Graph& g, std::uint32_t min_degree,
                            const ClusteringOptions& opts) {
  if (g.node_count() == 0) throw std::invalid_argument("clustering: empty");
  if (min_degree == 0) throw std::invalid_argument("clustering: delta == 0");
  const double n = static_cast<double>(g.node_count());
  const double p = std::min(1.0, opts.c * std::log(n) / min_degree);

  std::vector<std::uint8_t> is_center(g.node_count(), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (p >= 1.0) {
      is_center[v] = 1;
    } else {
      const auto threshold = static_cast<std::uint64_t>(p * 0x1.0p64);
      is_center[v] = mix64(opts.seed, v, 0x636c7573ULL) < threshold;
    }
  }

  congest::Network net(g);
  ClusterProtocol proto(g, is_center);
  const auto res = net.run(proto, opts);

  Clustering out;
  out.rounds = res.rounds;
  out.s = proto.s_;

  // Index clusters: any node that ended up as its own center is a center
  // (sampled or self-promoted).
  std::vector<std::uint32_t> index(g.node_count(), kUnreached);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (out.s[v] == v) {
      index[v] = static_cast<std::uint32_t>(out.centers.size());
      out.centers.push_back(v);
      if (!is_center[v]) ++out.self_promoted;
    }
  }
  out.cluster_of.resize(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v)
    out.cluster_of[v] = index[out.s[v]];

  // Gc edges from the s(v) exchange: for every graph edge {u, v} with
  // different clusters, connect the clusters.
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<NodeId, NodeId>> gc_edges;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    std::uint32_t a = out.cluster_of[g.edge_u(e)];
    std::uint32_t b = out.cluster_of[g.edge_v(e)];
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (seen.insert(key).second) gc_edges.emplace_back(a, b);
  }
  out.cluster_graph =
      Graph::from_edges(static_cast<NodeId>(out.centers.size()), gc_edges);
  return out;
}

}  // namespace fc::apps
