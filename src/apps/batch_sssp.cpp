#include "apps/batch_sssp.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "util/rng.hpp"

namespace fc::apps {

namespace {
constexpr std::uint32_t kTagDist = 1;  // a = source index, b = sender's dist
}

BatchBellmanFord::BatchBellmanFord(const WeightedGraph& g,
                                   std::vector<NodeId> sources)
    : g_(&g), sources_(std::move(sources)) {
  const NodeId n = g.graph().node_count();
  if (sources_.empty())
    throw std::invalid_argument("batch-sssp: no sources");
  for (const NodeId s : sources_)
    if (s >= n)
      throw std::invalid_argument("batch-sssp: source " + std::to_string(s) +
                                  " out of range for n=" + std::to_string(n));
  const std::size_t cells = std::size_t{n} * sources_.size();
  dist_.assign(cells, kInfWeight);
  parent_arc_.assign(cells, kInvalidArc);
  queued_.assign(cells, 0);
  queue_.resize(n);
}

void BatchBellmanFord::start(congest::Context& ctx) {
  const NodeId v = ctx.id();
  const std::size_t k = sources_.size();
  for (std::uint32_t s = 0; s < k; ++s) {
    if (sources_[s] != v) continue;
    const std::size_t cell = std::size_t{v} * k + s;
    dist_[cell] = 0;
    if (!queued_[cell]) {
      queued_[cell] = 1;
      queue_[v].push_back(s);
    }
  }
  if (queue_[v].empty()) return;
  // Announce one query this round; the rest of a multi-query source's
  // announcements pipeline through step() like any other backlog.
  const std::uint32_t s = queue_[v].front();
  queue_[v].pop_front();
  queued_[std::size_t{v} * k + s] = 0;
  ctx.annotate("batch-sssp/gen=" + std::to_string(s));
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    ctx.send(a, {kTagDist, s, 0});
  if (!queue_[v].empty()) ctx.request_wakeup();
}

void BatchBellmanFord::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  const std::size_t k = sources_.size();
  // Strict relaxation over the arc-sorted inbox: the lowest arc id wins
  // ties, deterministically — same rule as the single-source code.
  for (const auto& in : ctx.inbox()) {
    const auto s = static_cast<std::uint32_t>(in.msg.a);
    const Weight cand =
        static_cast<Weight>(in.msg.b) + g_->arc_weight(in.via);
    const std::size_t cell = std::size_t{v} * k + s;
    if (cand >= dist_[cell]) continue;
    dist_[cell] = cand;
    parent_arc_[cell] = in.via;
    if (!queued_[cell]) {
      queued_[cell] = 1;
      queue_[v].push_back(s);
    }
  }
  if (queue_[v].empty()) return;
  quiescence_.note_activity(ctx.round());
  const std::uint32_t s = queue_[v].front();
  queue_[v].pop_front();
  const std::size_t cell = std::size_t{v} * k + s;
  queued_[cell] = 0;
  // A source draining its own multi-query backlog launches query s only
  // now — mark the generation like start() does for the first query.
  if (sources_[s] == v && dist_[cell] == 0)
    ctx.annotate("batch-sssp/gen=" + std::to_string(s));
  // Announce the CURRENT distance (a superseded queue entry is never sent);
  // the parent cannot profit from hearing its own improvement back.
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    if (a != parent_arc_[cell])
      ctx.send(a, {kTagDist, s, static_cast<std::uint64_t>(dist_[cell])});
  if (!queue_[v].empty()) ctx.request_wakeup();
}

bool BatchBellmanFord::done() const { return quiescence_.quiescent(); }

std::vector<Weight> BatchBellmanFord::source_distances(
    std::uint32_t s) const {
  const std::size_t k = sources_.size();
  const NodeId n = g_->graph().node_count();
  std::vector<Weight> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = dist_[std::size_t{v} * k + s];
  return out;
}

std::uint64_t BatchSsspReport::max_arc_congestion() const {
  return congest::max_arc_congestion(arc_sends);
}

std::uint64_t BatchSsspReport::max_edge_congestion(const Graph& g) const {
  return congest::max_edge_congestion(g, arc_sends);
}

BatchSsspReport batch_sssp(const WeightedGraph& g,
                           std::vector<NodeId> sources,
                           const BatchSsspOptions& opts) {
  BatchSsspReport r;
  BatchBellmanFord alg(g, std::move(sources));
  std::optional<congest::Network> local;
  const auto cost =
      congest::engine_for(g.graph(), opts.network, local).run(alg, opts);
  r.sources = alg.sources();
  const std::uint32_t k = alg.k();
  r.dist.reserve(k);
  r.reached.assign(k, 0);
  r.max_dist.assign(k, 0);
  for (std::uint32_t s = 0; s < k; ++s) {
    r.dist.push_back(alg.source_distances(s));
    for (const Weight d : r.dist.back())
      if (d != kInfWeight) {
        ++r.reached[s];
        r.max_dist[s] = std::max(r.max_dist[s], d);
      }
  }
  r.rounds = cost.rounds;
  r.messages = cost.messages;
  r.arc_sends = cost.arc_sends;
  r.finished = cost.finished;
  r.cancelled = cost.cancelled;
  return r;
}

std::vector<NodeId> default_sources(const Graph& g, std::uint64_t k) {
  // Shared by batch-sssp AND batch-bfs: keep the messages algorithm-neutral.
  if (k == 0)
    throw std::invalid_argument("batch query: sources count must be >= 1");
  if (k > g.node_count())
    throw std::invalid_argument(
        "batch query: sources=" + std::to_string(k) +
        " exceeds the graph's n=" + std::to_string(g.node_count()));
  std::vector<NodeId> out(k);
  for (std::uint64_t i = 0; i < k; ++i) out[i] = static_cast<NodeId>(i);
  return out;
}

std::vector<NodeId> random_sources(const Graph& g, std::uint64_t k,
                                   std::uint64_t seed) {
  if (k == 0)
    throw std::invalid_argument("batch query: sources count must be >= 1");
  const NodeId n = g.node_count();
  if (k > n)
    throw std::invalid_argument(
        "batch query: sources=" + std::to_string(k) +
        " exceeds the graph's n=" + std::to_string(n));
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  Rng rng(mix64(seed, n));
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t j = i + rng.below(n - i);
    std::swap(perm[i], perm[j]);
  }
  perm.resize(k);
  return perm;
}

}  // namespace fc::apps
