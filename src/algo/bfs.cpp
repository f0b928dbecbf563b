#include "algo/bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace fc::algo {

namespace {
constexpr std::uint32_t kTagJoin = 1;
constexpr std::uint32_t kTagLevel = 2;  // a = source index, b = sender's hops
}

DistributedBfs::DistributedBfs(const Graph& g, NodeId root)
    : graph_(&g), root_(root) {
  if (root >= g.node_count()) throw std::invalid_argument("bfs: bad root");
  dist_.assign(g.node_count(), kUnreached);
  parent_arc_.assign(g.node_count(), kInvalidArc);
}

void DistributedBfs::start(congest::Context& ctx) {
  if (ctx.id() != root_) return;
  dist_[root_] = 0;
  reached_.fetch_add(1, std::memory_order_relaxed);
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    ctx.send(a, {kTagJoin, 0, 0});
}

void DistributedBfs::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  if (dist_[v] != kUnreached || ctx.inbox().empty()) return;
  // Adopt the first announcement (inbox is sorted by arc id).
  const auto& first = ctx.inbox().front();
  dist_[v] = static_cast<std::uint32_t>(first.msg.a) + 1;
  parent_arc_[v] = first.via;
  reached_.fetch_add(1, std::memory_order_relaxed);
  quiescence_.note_activity(ctx.round());
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    if (a != first.via) ctx.send(a, {kTagJoin, dist_[v], 0});
}

bool DistributedBfs::done() const {
  // Everyone reached, or the flood died out in a disconnected part.
  if (reached_.load(std::memory_order_relaxed) == graph_->node_count())
    return true;
  return quiescence_.quiescent();
}

NodeId DistributedBfs::parent(NodeId v) const {
  const ArcId a = parent_arc_[v];
  return a == kInvalidArc ? kInvalidNode : graph_->arc_head(a);
}

std::uint32_t DistributedBfs::depth() const {
  std::uint32_t d = 0;
  for (std::uint32_t x : dist_)
    if (x != kUnreached) d = std::max(d, x);
  return d;
}

BatchBfs::BatchBfs(const Graph& g, std::vector<NodeId> sources)
    : graph_(&g), sources_(std::move(sources)) {
  if (sources_.empty())
    throw std::invalid_argument("batch-bfs: no sources");
  for (const NodeId s : sources_)
    if (s >= g.node_count())
      throw std::invalid_argument("batch-bfs: source " + std::to_string(s) +
                                  " out of range for n=" +
                                  std::to_string(g.node_count()));
  const std::size_t cells = std::size_t{g.node_count()} * sources_.size();
  dist_.assign(cells, kUnreached);
  parent_arc_.assign(cells, kInvalidArc);
  queued_.assign(cells, 0);
  queue_.resize(g.node_count());
}

void BatchBfs::start(congest::Context& ctx) {
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
  const std::uint32_t s = queue_[v].front();
  queue_[v].pop_front();
  queued_[std::size_t{v} * k + s] = 0;
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    ctx.send(a, {kTagLevel, s, 0});
  if (!queue_[v].empty()) ctx.request_wakeup();
}

void BatchBfs::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  const std::size_t k = sources_.size();
  // Label-correcting adoption: a pipelined wave may arrive late, so only a
  // strictly smaller hop count wins (lowest arc first within the round).
  for (const auto& in : ctx.inbox()) {
    const auto s = static_cast<std::uint32_t>(in.msg.a);
    const auto cand = static_cast<std::uint32_t>(in.msg.b) + 1;
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
  // Announce the CURRENT distance (a superseded queue entry is never sent);
  // the parent cannot profit from hearing it back.
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    if (a != parent_arc_[cell]) ctx.send(a, {kTagLevel, s, dist_[cell]});
  if (!queue_[v].empty()) ctx.request_wakeup();
}

bool BatchBfs::done() const { return quiescence_.quiescent(); }

std::vector<std::uint32_t> BatchBfs::source_distances(std::uint32_t s) const {
  const std::size_t k = sources_.size();
  std::vector<std::uint32_t> out(graph_->node_count());
  for (NodeId v = 0; v < graph_->node_count(); ++v)
    out[v] = dist_[std::size_t{v} * k + s];
  return out;
}

NodeId BatchBfs::reached_count(std::uint32_t s) const {
  const std::size_t k = sources_.size();
  NodeId reached = 0;
  for (NodeId v = 0; v < graph_->node_count(); ++v)
    if (dist_[std::size_t{v} * k + s] != kUnreached) ++reached;
  return reached;
}

std::uint32_t BatchBfs::depth(std::uint32_t s) const {
  const std::size_t k = sources_.size();
  std::uint32_t d = 0;
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    const std::uint32_t x = dist_[std::size_t{v} * k + s];
    if (x != kUnreached) d = std::max(d, x);
  }
  return d;
}

std::vector<EdgeId> SpanningTree::tree_edges(const Graph& g) const {
  std::vector<EdgeId> out;
  out.reserve(covered > 0 ? covered - 1 : 0);
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (parent_arc[v] != kInvalidArc) out.push_back(g.arc_edge(parent_arc[v]));
  return out;
}

SpanningTree extract_tree(const Graph& g, const DistributedBfs& bfs) {
  SpanningTree t;
  t.root = bfs.root();
  t.parent_arc.assign(g.node_count(), kInvalidArc);
  t.child_arcs.assign(g.node_count(), {});
  t.depth_of.assign(g.node_count(), kUnreached);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    t.depth_of[v] = bfs.dist(v);
    if (bfs.dist(v) != kUnreached) {
      ++t.covered;
      t.depth = std::max(t.depth, bfs.dist(v));
    }
    const ArcId pa = bfs.parent_arc(v);
    if (pa == kInvalidArc) continue;
    t.parent_arc[v] = pa;
    t.child_arcs[g.arc_head(pa)].push_back(g.arc_reverse(pa));
  }
  return t;
}

BfsOutcome run_bfs(congest::Network& net, NodeId root,
                   const congest::RunOptions& opts) {
  const Graph& g = net.graph();
  DistributedBfs alg(g, root);
  BfsOutcome out;
  out.cost = net.run(alg, opts);
  out.tree = extract_tree(g, alg);
  return out;
}

BfsOutcome run_bfs(const Graph& g, NodeId root,
                   const congest::RunOptions& opts) {
  congest::Network net(g);
  return run_bfs(net, root, opts);
}

}  // namespace fc::algo
