#include "apps/mst.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "algo/convergecast.hpp"
#include "congest/network.hpp"

namespace fc::apps {

namespace {

constexpr std::uint32_t kTagFrag = 1;     // a = sender's fragment id
constexpr std::uint32_t kTagConnect = 3;  // a = sender's fragment id, b = edge

/// MOE key: total order on edges, so fragment minima are unique.
using MoeKey = std::pair<Weight, EdgeId>;
constexpr MoeKey kNoMoe{kInfWeight, kInvalidEdge};

/// Phase step 1: every node announces its fragment id over every arc (one
/// round), and derives its local MOE candidate — the cheapest incident edge
/// whose far endpoint answered with a different fragment id. Exactly two
/// rounds; `silenced` nodes (finished fragments) skip the announce, and
/// since a finished fragment has no outgoing edges, their neighbours are
/// silenced too — the component costs nothing.
///
/// Scheduling: only announcement receivers act in round 1; the two-round clock
/// lives in round_started so silent components (and the sparse engine's idle
/// rounds) cannot stall done().
class AnnouncePhase : public congest::Algorithm {
 public:
  AnnouncePhase(const WeightedGraph& g, const std::vector<NodeId>& frag,
                const std::vector<std::uint8_t>& silenced,
                std::string phase_label)
      : g_(&g), frag_(&frag), silenced_(&silenced),
        phase_label_(std::move(phase_label)) {
    const NodeId n = g.graph().node_count();
    local_.assign(n, kNoMoe);
    candidate_arc_.assign(n, kInvalidArc);
  }

  std::string name() const override { return "mst/announce"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if ((*silenced_)[v]) return;
    // Fragment leaders mark the phase in the trace; (round, label) dedup
    // collapses all leaders of one announce into a single instant event.
    if ((*frag_)[v] == v) ctx.annotate(phase_label_);
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {kTagFrag, (*frag_)[v], 0});
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    for (const auto& in : ctx.inbox()) {
      if (static_cast<NodeId>(in.msg.a) == (*frag_)[v]) continue;
      const EdgeId e = ctx.graph().arc_edge(in.via);
      const MoeKey key{g_->weight(e), e};
      if (key < local_[v]) {
        local_[v] = key;
        candidate_arc_[v] = in.via;
      }
    }
    if (local_[v] != kNoMoe)
      any_candidate_.store(true, std::memory_order_relaxed);
  }

  bool done() const override {
    return last_round_.load(std::memory_order_relaxed) >= 1;
  }
  void round_started(std::uint64_t round) override {
    last_round_.store(round, std::memory_order_relaxed);
  }

  /// True when any fragment still has an outgoing edge (more merges due).
  bool any_candidate() const {
    return any_candidate_.load(std::memory_order_relaxed);
  }
  const MoeKey& local(NodeId v) const { return local_[v]; }
  ArcId candidate_arc(NodeId v) const { return candidate_arc_[v]; }

 private:
  const WeightedGraph* g_;
  const std::vector<NodeId>* frag_;
  const std::vector<std::uint8_t>* silenced_;
  std::string phase_label_;
  std::vector<MoeKey> local_;
  std::vector<ArcId> candidate_arc_;
  std::atomic<bool> any_candidate_{false};
  std::atomic<std::uint64_t> last_round_{0};
};

/// Merge, step 1 of 2: winners send CONNECT over their MOE arc; both
/// endpoints mark it a tree arc. Exactly two rounds. The naming itself is a
/// ForestEcho over the merged tree (run by the host).
class ConnectPhase : public congest::Algorithm {
 public:
  ConnectPhase(const std::vector<NodeId>& frag,
               const std::vector<ArcId>& winner_arc,
               std::vector<std::uint8_t>& tree_arc)
      : frag_(&frag), winner_arc_(&winner_arc), tree_arc_(&tree_arc) {}

  std::string name() const override { return "mst/connect"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    const ArcId moe = (*winner_arc_)[v];
    if (moe == kInvalidArc) return;
    (*tree_arc_)[moe] = 1;
    ctx.send(moe, {kTagConnect, (*frag_)[v], ctx.graph().arc_edge(moe)});
  }

  void step(congest::Context& ctx) override {
    for (const auto& in : ctx.inbox())
      if (in.msg.tag == kTagConnect) (*tree_arc_)[in.via] = 1;
  }

  bool done() const override {
    return last_round_.load(std::memory_order_relaxed) >= 1;
  }
  void round_started(std::uint64_t round) override {
    last_round_.store(round, std::memory_order_relaxed);
  }

 private:
  const std::vector<NodeId>* frag_;
  const std::vector<ArcId>* winner_arc_;
  std::vector<std::uint8_t>* tree_arc_;
  std::atomic<std::uint64_t> last_round_{0};
};

/// Charges one phase execution to the report; its messages also go to
/// `bucket` (announce_messages or merge_messages).
void accumulate(MstReport& r, const congest::RunResult& cost,
                std::uint64_t& bucket) {
  r.rounds += cost.rounds;
  r.messages += cost.messages;
  bucket += cost.messages;
  r.finished = r.finished && cost.finished;
  r.cancelled = r.cancelled || cost.cancelled;
  for (std::size_t a = 0; a < cost.arc_sends.size(); ++a)
    r.arc_sends[a] += cost.arc_sends[a];
}

}  // namespace

std::uint64_t MstReport::max_arc_congestion() const {
  return congest::max_arc_congestion(arc_sends);
}

std::uint64_t MstReport::max_edge_congestion(const Graph& g) const {
  return congest::max_edge_congestion(g, arc_sends);
}

MstReport distributed_mst(const WeightedGraph& g, const MstOptions& opts) {
  const Graph& graph = g.graph();
  const NodeId n = graph.node_count();
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::invalid_argument(
        "mst: fault plans are not supported (the Boruvka phases are "
        "separate engine runs with no single fault clock)");
  MstReport r;
  r.finished = true;
  if (n == 0) return r;  // no node ever steps, so no phase would terminate
  r.fragment.resize(n);
  for (NodeId v = 0; v < n; ++v) r.fragment[v] = v;
  r.arc_sends.assign(graph.arc_count(), 0);
  std::vector<std::uint8_t> tree_arc(graph.arc_count(), 0);
  std::vector<std::uint8_t> in_msf(graph.edge_count(), 0);
  // Nodes of fragments proven complete (no outgoing edge): silenced.
  std::vector<std::uint8_t> complete(n, 0);
  // ONE engine serves every phase execution: run() fully resets per-run
  // state, so this is bit-identical to the former per-phase Networks and
  // drops their repeated adjacency-sized allocations.
  congest::Network net(graph);

  // Fragment count at least halves per phase, so 2^40 nodes would be needed
  // to exceed this cap legitimately; hitting it means non-termination.
  constexpr std::uint32_t kPhaseCap = 40;
  while (true) {
    AnnouncePhase announce(g, r.fragment, complete,
                           "mst/phase=" + std::to_string(r.phases + 1));
    accumulate(r, net.run(announce, opts), r.announce_messages);
    if (!announce.any_candidate() || !r.finished) break;  // forest complete
    if (++r.phases > kPhaseCap) {
      r.finished = false;
      break;
    }

    // Fragment minimum per node: an echo, ≤ 2 messages per tree edge.
    std::vector<algo::EchoValue> keys(n);
    for (NodeId v = 0; v < n; ++v)
      keys[v] = {static_cast<std::uint64_t>(announce.local(v).first),
                 announce.local(v).second};
    algo::ForestEcho moe(graph, tree_arc, std::move(keys), &complete);
    accumulate(r, net.run(moe, opts), r.merge_messages);
    if (!r.finished) break;

    // Winners: the unique node per fragment whose local candidate IS the
    // fragment minimum (keys are distinct across edges). Fragments without
    // an outgoing edge are done for good (an MSF never regrows one):
    // silence them from here on.
    std::vector<ArcId> winner_arc(n, kInvalidArc);
    for (NodeId v = 0; v < n; ++v) {
      const MoeKey best{static_cast<Weight>(moe.result(v).first),
                        static_cast<EdgeId>(moe.result(v).second)};
      if (best == kNoMoe) complete[v] = 1;
      if (announce.local(v) == kNoMoe || announce.local(v) != best) continue;
      winner_arc[v] = announce.candidate_arc(v);
      const EdgeId e = graph.arc_edge(winner_arc[v]);
      if (!in_msf[e]) {
        in_msf[e] = 1;
        r.tree_edges.push_back(e);
      }
    }
    ConnectPhase connect(r.fragment, winner_arc, tree_arc);
    accumulate(r, net.run(connect, opts), r.merge_messages);
    std::vector<algo::EchoValue> names(n);
    for (NodeId v = 0; v < n; ++v) names[v] = {r.fragment[v], 0};
    algo::ForestEcho naming(graph, tree_arc, std::move(names), &complete);
    accumulate(r, net.run(naming, opts), r.merge_messages);
    for (NodeId v = 0; v < n; ++v)
      r.fragment[v] = static_cast<NodeId>(naming.result(v).first);
    if (!r.finished) break;  // a run hit max_rounds
  }

  std::sort(r.tree_edges.begin(), r.tree_edges.end());
  r.total_weight = edge_set_weight(g, r.tree_edges);
  return r;
}

}  // namespace fc::apps
