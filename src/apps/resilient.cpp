#include "apps/resilient.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/quiescence.hpp"
#include "graph/mincut.hpp"

namespace fc::apps {

namespace {

/// Materialize the adversary's per-round corruption sets. The adversary is
/// MOBILE: the set may change every round (FP23's model), limited to f
/// edges per round.
std::vector<std::vector<EdgeId>> corruption_schedule(
    const Graph& g, const core::TreePacking& packing, std::uint64_t rounds,
    const ResilientOptions& opts) {
  std::vector<std::vector<EdgeId>> schedule(rounds);
  if (opts.f == 0 || opts.adversary == AdversaryKind::kNone) return schedule;

  Rng rng(mix64(opts.seed, 0x61647620ULL));
  switch (opts.adversary) {
    case AdversaryKind::kNone:
      break;
    case AdversaryKind::kRandom: {
      for (auto& round_set : schedule) {
        std::unordered_set<EdgeId> chosen;
        while (chosen.size() < opts.f && chosen.size() < g.edge_count())
          chosen.insert(static_cast<EdgeId>(rng.below(g.edge_count())));
        round_set.assign(chosen.begin(), chosen.end());
      }
      break;
    }
    case AdversaryKind::kTreeFocused: {
      // Concentrate on tree 0's edges, rotating through them.
      const auto& edges = packing.tree_edges.front();
      std::size_t cursor = 0;
      for (auto& round_set : schedule) {
        for (std::uint32_t i = 0; i < opts.f && i < edges.size(); ++i)
          round_set.push_back(edges[(cursor + i) % edges.size()]);
        cursor = (cursor + opts.f) % std::max<std::size_t>(edges.size(), 1);
      }
      break;
    }
    case AdversaryKind::kCutFocused: {
      std::vector<bool> side = opts.attacked_cut;
      if (side.empty()) {
        side.assign(g.node_count(), false);
        for (NodeId v = 0; v < g.node_count() / 2; ++v) side[v] = true;
      }
      std::vector<EdgeId> cut_edges;
      for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (side[g.edge_u(e)] != side[g.edge_v(e)]) cut_edges.push_back(e);
      std::size_t cursor = 0;
      for (auto& round_set : schedule) {
        for (std::uint32_t i = 0; i < opts.f && i < cut_edges.size(); ++i)
          round_set.push_back(cut_edges[(cursor + i) % cut_edges.size()]);
        cursor = (cursor + opts.f) % std::max<std::size_t>(cut_edges.size(), 1);
      }
      break;
    }
  }
  return schedule;
}

/// Majority decode: the adversary wins a (v, m) slot when at least half of
/// the copies are corrupted (corrupted copies may collude on one value).
/// Shared tail of both drives.
ResilientReport decode(const Graph& g, NodeId root, std::uint64_t k,
                       const std::vector<std::uint16_t>& corrupted,
                       ResilientReport report) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == root) continue;
    for (std::uint64_t m = 0; m < k; ++m) {
      const std::uint32_t c = corrupted[static_cast<std::size_t>(v) * k + m];
      if (2 * c >= report.trees) ++report.decode_failures;
    }
  }
  const double slots =
      static_cast<double>(g.node_count() - 1) * static_cast<double>(k);
  report.failure_rate = slots > 0 ? report.decode_failures / slots : 0;
  return report;
}

/// Deterministic payload for message m. The engine drive detects corruption
/// by comparing the word that arrived against this; corrupt_word is a
/// bijection, so any odd chain of hits (and, outside astronomically rare
/// permutation cycles, any chain at all) yields a different word.
std::uint64_t payload_word(std::uint64_t m) {
  return mix64(0x7265736c69656e74ULL, m);
}

/// One tree's pipelined broadcast on the engine: the root injects message m
/// in local round m; every other node forwards whatever arrives over its
/// parent arc to all child arcs in the round it is delivered. Message m
/// therefore crosses the edge into a depth-d node in send-round m + d - 1 —
/// exactly the analytic model's clock, which is what lets the adversary's
/// schedule be lowered onto kEdgeCorrupt faults round for round.
class TreePipelineBroadcast final : public congest::Algorithm {
 public:
  TreePipelineBroadcast(const algo::SpanningTree& tree, std::uint64_t k,
                        std::vector<std::uint64_t>& arrived,
                        std::vector<std::uint8_t>& got)
      : tree_(&tree), k_(k), arrived_(&arrived), got_(&got) {}

  std::string name() const override { return "resilient/tree-broadcast"; }
  void round_started(std::uint64_t round) override { q_.note_round(round); }
  bool done() const override { return q_.quiescent(); }

  void start(congest::Context& ctx) override {
    if (ctx.id() != tree_->root || k_ == 0) return;
    inject(ctx, 0);
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if (v == tree_->root) {
      // Woken via request_wakeup: inject the round's message (m == round,
      // since message 0 went out in start()'s round 0).
      const std::uint64_t m = ctx.round();
      if (m < k_) inject(ctx, m);
      return;
    }
    for (const auto& in : ctx.inbox()) {
      if (in.via != tree_->parent_arc[v]) continue;  // tree traffic only
      const std::uint64_t m = in.msg.tag;
      const std::size_t slot = static_cast<std::size_t>(v) * k_ + m;
      (*arrived_)[slot] = in.msg.a;
      (*got_)[slot] = 1;
      if (tree_->child_arcs[v].empty()) continue;
      q_.note_activity(ctx.round());
      for (const ArcId c : tree_->child_arcs[v]) ctx.send(c, in.msg);
    }
  }

 private:
  void inject(congest::Context& ctx, std::uint64_t m) {
    q_.note_activity(ctx.round());
    for (const ArcId c : tree_->child_arcs[tree_->root])
      ctx.send(c, {static_cast<std::uint32_t>(m), payload_word(m), 0});
    if (m + 1 < k_) ctx.request_wakeup();
  }

  const algo::SpanningTree* tree_;
  std::uint64_t k_;
  std::vector<std::uint64_t>* arrived_;
  std::vector<std::uint8_t>* got_;
  congest::QuiescenceDetector q_;
};

/// kEngine drive: run every tree's broadcast on the CONGEST engine with the
/// adversary lowered onto per-tree kEdgeCorrupt fault plans (tree t's window
/// [t*window, (t+1)*window) maps to that run's local rounds), then count a
/// (node, message, tree) copy as corrupted when the arrived payload differs
/// from the injected one. Fills `corrupted` and report.corrupted_copies with
/// exactly what the analytic drive computes.
void engine_corruption(const Graph& g, const core::TreePacking& packing,
                       std::uint64_t k, std::uint64_t window,
                       const std::vector<std::vector<EdgeId>>& schedule,
                       std::vector<std::uint16_t>& corrupted,
                       ResilientReport& report) {
  if (k > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        "resilient_broadcast: engine drive needs k to fit a message tag");
  const NodeId root = packing.trees.front().root;
  congest::Network net(g);
  std::vector<std::uint64_t> arrived(corrupted.size(), 0);
  std::vector<std::uint8_t> got(corrupted.size(), 0);
  for (std::uint32_t t = 0; t < report.trees; ++t) {
    const std::uint64_t offset = static_cast<std::uint64_t>(t) * window;
    congest::FaultPlan plan;
    for (std::uint64_t r = 0; r < window; ++r)
      for (const EdgeId e : schedule[offset + r]) plan.corrupt_edge(r, e);
    std::fill(got.begin(), got.end(), 0);
    TreePipelineBroadcast alg(packing.trees[t], k, arrived, got);
    congest::RunOptions ro;
    ro.max_rounds = window + 2;  // quiescence lands at <= depth + k + 1
    if (!plan.empty()) ro.faults = &plan;
    const auto res = net.run(alg, ro);
    if (!res.finished)
      throw std::logic_error("resilient_broadcast: engine drive hit the "
                             "round cap before quiescing");
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == root) continue;
      for (std::uint64_t m = 0; m < k; ++m) {
        const std::size_t slot = static_cast<std::size_t>(v) * k + m;
        if (!got[slot])
          throw std::logic_error(
              "resilient_broadcast: engine drive lost a copy (corruption "
              "never drops messages — this is a bug)");
        if (arrived[slot] != payload_word(m)) {
          ++corrupted[slot];
          ++report.corrupted_copies;
        }
      }
    }
  }
}

}  // namespace

ResilientReport resilient_broadcast(const Graph& g,
                                    const core::TreePacking& packing,
                                    std::uint64_t k,
                                    const ResilientOptions& opts) {
  if (packing.trees.empty())
    throw std::invalid_argument("resilient_broadcast: empty packing");
  const NodeId root = packing.trees.front().root;
  std::uint32_t max_depth = 0;
  for (const auto& t : packing.trees) {
    if (t.covered != g.node_count())
      throw std::invalid_argument("resilient_broadcast: non-spanning tree");
    if (t.root != root)
      throw std::invalid_argument("resilient_broadcast: trees disagree on root");
    max_depth = std::max(max_depth, t.depth);
  }

  ResilientReport report;
  report.trees = static_cast<std::uint32_t>(packing.trees.size());
  report.k = k;

  // Serialize the trees: tree t broadcasts during its own window, so trees
  // sharing edges never contend (the conservative end of the Theorem 12
  // schedule; an edge-disjoint packing could run all windows concurrently).
  const std::uint64_t window = max_depth + k + 1;
  report.rounds = window * report.trees;

  const auto schedule = corruption_schedule(g, packing, report.rounds, opts);

  // corrupted[v * k + m] counts trees whose copy of message m arrived at v
  // corrupted. Message m crosses the j-th path edge (counting from the
  // root) at local round m + j - 1 within the tree's window.
  std::vector<std::uint16_t> corrupted(static_cast<std::size_t>(g.node_count()) * k, 0);
  if (opts.drive == ResilientDrive::kEngine) {
    engine_corruption(g, packing, k, window, schedule, corrupted, report);
    return decode(g, root, k, corrupted, report);
  }

  // Fast membership: per round, a sorted vector (f is small).
  std::vector<std::vector<EdgeId>> sorted = schedule;
  for (auto& s : sorted) std::sort(s.begin(), s.end());
  auto hit = [&](EdgeId e, std::uint64_t round) {
    const auto& s = sorted[round];
    return std::binary_search(s.begin(), s.end(), e);
  };

  for (std::uint32_t t = 0; t < report.trees; ++t) {
    const auto& tree = packing.trees[t];
    const std::uint64_t offset = static_cast<std::uint64_t>(t) * window;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == root) continue;
      // Path edges from v up to the root, with their depth index.
      std::vector<std::pair<EdgeId, std::uint32_t>> path;
      for (NodeId x = v; x != root;) {
        const ArcId pa = tree.parent_arc[x];
        path.emplace_back(g.arc_edge(pa), tree.depth_of[x]);
        x = g.arc_head(pa);
      }
      for (std::uint64_t m = 0; m < k; ++m) {
        bool bad = false;
        for (const auto& [e, depth] : path) {
          const std::uint64_t round = offset + m + depth - 1;
          if (hit(e, round)) {
            bad = true;
            break;
          }
        }
        if (bad) {
          ++corrupted[static_cast<std::size_t>(v) * k + m];
          ++report.corrupted_copies;
        }
      }
    }
  }

  return decode(g, root, k, corrupted, report);
}

}  // namespace fc::apps
