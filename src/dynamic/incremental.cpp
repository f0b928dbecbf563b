#include "dynamic/incremental.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "congest/quiescence.hpp"
#include "graph/properties.hpp"

namespace fc::dynamic {

namespace {

std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Why partial wake-up converges to the exact from-scratch distances —
// sketch of the two directions:
//  * Labels never go BELOW the true distance d': non-orphans start at
//    their old label, which an intact parent chain still achieves in G'
//    (so label >= d'); orphans start at infinity; and a relaxation adopts
//    label(u) + w >= d'(u) + w >= d'(v).
//  * Labels reach d': take a shortest path in G' to any node left with
//    label > d', and the last node u on it whose label equals d'(u). The
//    next hop w refutes it: if edge (u, w) was inserted, u is woken and
//    announces; if it is an old edge and w is an orphan, u is a finite
//    neighbor of an orphan — woken, announces; if both are non-orphans,
//    label(w) = d_old(w) <= d_old(u) + w(u,w) = d'(u) + w(u,w) = d'(w)
//    already. A woken/improving node always (re)announces its latest
//    label, so the correction propagates down the path to quiescence.
class LabelCorrect final : public congest::Algorithm {
 public:
  LabelCorrect(const WeightedGraph* wg, std::vector<std::uint64_t>& dist,
               std::vector<NodeId>& parent,
               const std::vector<std::uint8_t>& woken)
      : wg_(wg), dist_(dist), parent_(parent), woken_(woken) {}

  std::string name() const override {
    return wg_ != nullptr ? "dynamic/sssp" : "dynamic/bfs";
  }
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }
  bool done() const override { return quiescence_.quiescent(); }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if (woken_[v] == 0 || dist_[v] >= kInfLabel) return;
    // Seed only the arcs the label can actually improve. Reading the
    // neighbor's label is race-free HERE because round 0 runs no step()
    // handler — nobody writes dist_ while start() executes. (step() must
    // not peek: its rounds run concurrently with writers.) Correctness is
    // unaffected: a skipped message satisfies dist[v] + w >= dist[u], which
    // the strict-< adoption rule would discard anyway — so the final labels
    // match the unpruned flood bit for bit, with far fewer wasted sends
    // when a woken node sits inside an already-correct dense region.
    const congest::Message m{kTagLabel, dist_[v], 0};
    bool sent = false;
    for (ArcId a = ctx.arc_begin(); a != ctx.arc_end(); ++a) {
      const std::uint64_t w =
          wg_ != nullptr ? static_cast<std::uint64_t>(wg_->arc_weight(a))
                         : 1;
      if (dist_[v] + w < dist_[ctx.neighbor(a)]) {
        ctx.send(a, m);
        sent = true;
      }
    }
    if (sent) quiescence_.note_activity(ctx.round());
  }

  void step(congest::Context& ctx) override {
    if (ctx.inbox().empty()) return;
    const NodeId v = ctx.id();
    // Candidates come from message PAYLOADS, never from neighbors' state —
    // the handler touches only node v's labels, so parallel rounds are
    // race-free and bit-identical at every pool size. The inbox is sorted
    // by arc, so strict improvement keeps the lowest arc on ties.
    std::uint64_t best = dist_[v];
    ArcId best_arc = kInvalidArc;
    for (const congest::Incoming& in : ctx.inbox()) {
      const std::uint64_t w =
          wg_ != nullptr
              ? static_cast<std::uint64_t>(wg_->arc_weight(in.via))
              : 1;
      const std::uint64_t cand = in.msg.a + w;
      if (cand < best) {
        best = cand;
        best_arc = in.via;
      }
    }
    if (best_arc == kInvalidArc) return;
    dist_[v] = best;
    parent_[v] = ctx.neighbor(best_arc);
    announce(ctx);
  }

 private:
  void announce(congest::Context& ctx) {
    quiescence_.note_activity(ctx.round());
    const congest::Message m{kTagLabel, dist_[ctx.id()], 0};
    for (ArcId a = ctx.arc_begin(); a != ctx.arc_end(); ++a) ctx.send(a, m);
  }

  static constexpr std::uint32_t kTagLabel = 0x6c626c;  // "lbl"

  const WeightedGraph* wg_;
  std::vector<std::uint64_t>& dist_;
  std::vector<NodeId>& parent_;
  const std::vector<std::uint8_t>& woken_;
  congest::QuiescenceDetector quiescence_;
};

IncrementalResult repair(const Graph& g, const WeightedGraph* wg,
                         NodeId source, std::vector<std::uint64_t>& dist,
                         std::vector<NodeId>& parent,
                         const UpdateBatch* batch,
                         const IncrementalOptions& opts) {
  const NodeId n = g.node_count();
  IncrementalResult res;
  std::vector<std::uint8_t> woken(n, 0);

  if (batch == nullptr) {
    if (source >= n)
      throw std::invalid_argument("dynamic: source out of range");
    dist.assign(n, kInfLabel);
    parent.assign(n, kInvalidNode);
    dist[source] = 0;
    woken[source] = 1;
  } else {
    if (dist.size() != n)
      throw std::logic_error(
          "dynamic: apply_batch before recompute (or node count changed)");
    std::unordered_set<std::uint64_t> del;
    del.reserve(batch->deleted.size() * 2);
    for (const auto& [u, v] : batch->deleted) del.insert(edge_key(u, v));

    // Orphan cascade over the parent forest. Children are found through a
    // counting-sort adjacency — O(n) per batch, no per-node vectors.
    std::vector<std::uint32_t> off(std::size_t{n} + 1, 0);
    for (NodeId v = 0; v < n; ++v)
      if (parent[v] != kInvalidNode) ++off[parent[v] + 1];
    for (NodeId v = 0; v < n; ++v) off[v + 1] += off[v];
    std::vector<NodeId> child(off[n]);
    {
      std::vector<std::uint32_t> cur(off.begin(), off.end() - 1);
      for (NodeId v = 0; v < n; ++v)
        if (parent[v] != kInvalidNode) child[cur[parent[v]]++] = v;
    }
    std::vector<std::uint8_t> orphan(n, 0);
    std::vector<NodeId> stack;
    if (!del.empty())
      for (NodeId v = 0; v < n; ++v)
        if (parent[v] != kInvalidNode &&
            del.count(edge_key(parent[v], v)) != 0) {
          orphan[v] = 1;
          stack.push_back(v);
        }
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (std::uint32_t i = off[v]; i < off[v + 1]; ++i) {
        const NodeId c = child[i];
        if (orphan[c] == 0) {
          orphan[c] = 1;
          stack.push_back(c);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (orphan[v] == 0) continue;
      dist[v] = kInfLabel;
      parent[v] = kInvalidNode;
      ++res.orphaned;
    }
    // Wake set: finite neighbors of orphans (they re-flood the hole) plus
    // both endpoints of every inserted edge (they propagate improvements).
    for (NodeId v = 0; v < n; ++v) {
      if (orphan[v] == 0) continue;
      for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a) {
        const NodeId u = g.arc_head(a);
        if (dist[u] < kInfLabel) woken[u] = 1;
      }
    }
    for (const auto& [u, v] : batch->inserted) {
      woken[u] = 1;
      woken[v] = 1;
    }
  }

  for (const std::uint8_t w : woken) res.woken += w;

  LabelCorrect alg(wg, dist, parent, woken);
  std::optional<congest::Network> local;
  res.run = congest::engine_for(g, opts.network, local).run(alg, opts);
  return res;
}

struct Dsu {
  std::vector<NodeId> p;
  explicit Dsu(NodeId n) : p(n) { std::iota(p.begin(), p.end(), 0); }
  NodeId find(NodeId x) {
    while (p[x] != x) {
      p[x] = p[p[x]];
      x = p[x];
    }
    return x;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    p[b] = a;
    return true;
  }
};

}  // namespace

IncrementalResult DynamicBfs::recompute(const Graph& g,
                                        const IncrementalOptions& opts) {
  return repair(g, nullptr, source_, dist_, parent_, nullptr, opts);
}

IncrementalResult DynamicBfs::apply_batch(const Graph& g,
                                          const UpdateBatch& batch,
                                          const IncrementalOptions& opts) {
  return repair(g, nullptr, source_, dist_, parent_, &batch, opts);
}

std::vector<std::uint32_t> DynamicBfs::distances() const {
  std::vector<std::uint32_t> out(dist_.size());
  for (std::size_t v = 0; v < dist_.size(); ++v)
    out[v] = dist_[v] >= kInfLabel ? kUnreached
                                   : static_cast<std::uint32_t>(dist_[v]);
  return out;
}

IncrementalResult DynamicSssp::recompute(const WeightedGraph& g,
                                         const IncrementalOptions& opts) {
  return repair(g.graph(), &g, source_, dist_, parent_, nullptr, opts);
}

IncrementalResult DynamicSssp::apply_batch(const WeightedGraph& g,
                                           const UpdateBatch& batch,
                                           const IncrementalOptions& opts) {
  return repair(g.graph(), &g, source_, dist_, parent_, &batch, opts);
}

std::vector<Weight> DynamicSssp::distances() const {
  std::vector<Weight> out(dist_.size());
  for (std::size_t v = 0; v < dist_.size(); ++v)
    out[v] = dist_[v] >= kInfLabel ? kInfWeight
                                   : static_cast<Weight>(dist_[v]);
  return out;
}

void DynamicMst::recompute(const WeightedGraph& g) {
  forest_ = kruskal_msf(g);
  pairs_.clear();
  pairs_.reserve(forest_.size());
  for (const EdgeId e : forest_)
    pairs_.emplace_back(g.graph().edge_u(e), g.graph().edge_v(e));
  weight_ = edge_set_weight(g, forest_);
  last_candidates_ = g.graph().edge_count();
  ready_ = true;
}

void DynamicMst::apply_batch(const WeightedGraph& g,
                             const UpdateBatch& batch) {
  if (!ready_)
    throw std::logic_error("DynamicMst: apply_batch before recompute");
  const Graph& t = g.graph();
  const NodeId n = t.node_count();
  const EdgeId m = t.edge_count();

  // EdgeIds are positions and shift every batch, but the shift is pure
  // arithmetic (UpdateBatch::deleted_ids): compaction preserves order, so a
  // surviving pre-batch id e becomes e - rank(e in deleted_ids), and the
  // inserted edges are the LAST inserted.size() ids. Re-anchoring the
  // carried forest therefore costs O(F log D) — no per-edge hashing of the
  // whole graph, which is what lets the repair beat a full Kruskal on wall
  // clock, not just on edges scanned.
  const std::vector<EdgeId>& del = batch.deleted_ids;
  std::vector<EdgeId> ids;  // candidate ids in the post-batch graph
  Dsu components(n);
  for (std::size_t i = 0; i < forest_.size(); ++i) {
    const EdgeId e = forest_[i];
    const auto it = std::lower_bound(del.begin(), del.end(), e);
    if (it != del.end() && *it == e) continue;  // forest edge deleted
    ids.push_back(e - static_cast<EdgeId>(it - del.begin()));
    components.unite(pairs_[i].first, pairs_[i].second);
  }
  const EdgeId ins = static_cast<EdgeId>(batch.inserted.size());
  for (EdgeId e = m - ins; e < m; ++e) ids.push_back(e);
  // Old edges crossing the surviving forest's components. Surviving forest
  // edges never cross (their endpoints were just united), so the three
  // candidate groups stay disjoint.
  for (EdgeId e = 0; e < m - ins; ++e)
    if (components.find(t.edge_u(e)) != components.find(t.edge_v(e)))
      ids.push_back(e);
  last_candidates_ = ids.size();
  std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
    return g.weight(a) != g.weight(b) ? g.weight(a) < g.weight(b) : a < b;
  });

  Dsu kruskal(n);
  forest_.clear();
  weight_ = 0;
  for (const EdgeId e : ids)
    if (kruskal.unite(t.edge_u(e), t.edge_v(e))) {
      forest_.push_back(e);
      weight_ += g.weight(e);
    }
  std::sort(forest_.begin(), forest_.end());
  pairs_.clear();
  pairs_.reserve(forest_.size());
  for (const EdgeId e : forest_)
    pairs_.emplace_back(t.edge_u(e), t.edge_v(e));
}

}  // namespace fc::dynamic
