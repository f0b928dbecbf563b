#include "apps/exact_apsp.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>

#include "apps/prt12_apsp.hpp"

namespace fc::apps {

namespace {

constexpr std::uint32_t kTagWave = 20;

/// The delayed-BFS phase as a CONGEST algorithm. Sources wake at 2π(u);
/// every node relays each newly learned (source, dist) pair to all
/// neighbours, one pair per round (FIFO).
///
/// Scheduling, via a wakeup chain: a node keeps itself scheduled while its
/// round-2π(v) source timer is still pending (request_wakeup has no target
/// round, so the chain ticks every round until the timer fires) or while its
/// relay queue holds undelivered pairs. After that it runs only when a wave
/// arrives. The chain's total activations are O(n) per node — the same order as
/// the waves themselves.
class DelayedBfs : public congest::Algorithm {
 public:
  DelayedBfs(const Graph& g, std::vector<std::uint32_t> pi)
      : pi_(std::move(pi)), n_(g.node_count()) {
    dist_.assign(static_cast<std::size_t>(n_) * n_, kUnreached);
    queue_.resize(n_);
  }

  std::string name() const override { return "delayed-bfs-apsp"; }

  std::uint32_t dist(NodeId v, NodeId u) const {
    return dist_[static_cast<std::size_t>(v) * n_ + u];
  }
  std::size_t max_queue() const { return max_queue_; }

  void start(congest::Context& ctx) override {
    act(ctx);
    rearm(ctx);
  }
  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    for (const auto& in : ctx.inbox()) {
      const auto src = static_cast<NodeId>(in.msg.a);
      const auto d = static_cast<std::uint32_t>(in.msg.b) + 1;
      auto& cell = dist_[static_cast<std::size_t>(v) * n_ + src];
      if (cell != kUnreached) continue;
      cell = d;
      bump(v);
      queue_[v].push_back({src, d});
      max_queue_ = std::max(max_queue_, queue_[v].size());
    }
    act(ctx);
    rearm(ctx);
  }
  bool done() const override {
    return filled_.load(std::memory_order_relaxed) ==
           static_cast<std::uint64_t>(n_) * n_;
  }

 private:
  struct Pending {
    NodeId src;
    std::uint32_t dist;
  };

  void bump(NodeId) {
    filled_.fetch_add(1, std::memory_order_relaxed);
  }

  void act(congest::Context& ctx) {
    const NodeId v = ctx.id();
    // Wake up as a source at round 2π(v).
    if (ctx.round() == 2ull * pi_[v]) {
      dist_[static_cast<std::size_t>(v) * n_ + v] = 0;
      bump(v);
      queue_[v].push_back({v, 0});
      max_queue_ = std::max(max_queue_, queue_[v].size());
    }
    if (queue_[v].empty()) return;
    const Pending p = queue_[v].front();
    queue_[v].pop_front();
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {kTagWave, p.src, p.dist});
  }

  void rearm(congest::Context& ctx) {
    const NodeId v = ctx.id();
    if (ctx.round() < 2ull * pi_[v] || !queue_[v].empty())
      ctx.request_wakeup();
  }

  std::vector<std::uint32_t> pi_;
  NodeId n_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::deque<Pending>> queue_;
  std::atomic<std::uint64_t> filled_{0};
  std::size_t max_queue_ = 0;  // benign cross-thread max: collisions would
                               // already surface via queue_ sizes > 1
};

}  // namespace

ExactApspReport exact_apsp_distributed(const Graph& g, NodeId dfs_root,
                                       const congest::RunOptions& opts) {
  if (!is_connected(g))
    throw std::invalid_argument("exact_apsp: disconnected graph");
  ExactApspReport report;

  // DFS-walk timestamps. The distributed token walk costs one round per
  // walk step: 2(n-1) rounds, charged analytically (the walk itself is a
  // single token, trivially CONGEST-legal).
  const auto pi = dfs_walk_timestamps(g, dfs_root);
  report.dfs_rounds = 2ull * (g.node_count() - 1);

  congest::Network net(g);
  DelayedBfs alg(g, pi);
  congest::RunOptions bounded = opts;
  bounded.max_rounds =
      std::min<std::uint64_t>(opts.max_rounds, 10ull * g.node_count() + 64);
  const auto res = net.run(alg, bounded);
  if (!res.finished && !res.cancelled)
    throw std::runtime_error("exact_apsp: delayed BFS did not converge");
  report.cancelled = res.cancelled;
  report.bfs_rounds = res.rounds;
  report.messages = res.messages;
  report.total_rounds = report.dfs_rounds + report.bfs_rounds;
  report.max_queue = alg.max_queue();

  report.dist.assign(g.node_count(), std::vector<std::uint32_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v)
    for (NodeId u = 0; u < g.node_count(); ++u)
      report.dist[v][u] = alg.dist(v, u);
  return report;
}

}  // namespace fc::apps
