#include "algo/convergecast.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fc::algo {

namespace {
constexpr std::uint32_t kTagUp = 3;
constexpr std::uint32_t kTagDown = 4;
constexpr std::uint32_t kTagVal = 5;  // saturation: running component min
constexpr std::uint32_t kTagRes = 6;  // resolution: the decided minimum
}  // namespace

Convergecast::Convergecast(const Graph& g, const SpanningTree& tree,
                           AggregateOp op, std::vector<std::uint64_t> values)
    : tree_(&tree), op_(op), acc_(std::move(values)), n_(g.node_count()) {
  if (acc_.size() != g.node_count())
    throw std::invalid_argument("convergecast: values size != n");
  if (tree.covered != g.node_count())
    throw std::invalid_argument("convergecast: tree does not span the graph");
  waiting_.resize(n_);
  for (NodeId v = 0; v < n_; ++v)
    waiting_[v] = static_cast<std::uint32_t>(tree.child_arcs[v].size());
  sent_up_.assign(n_, 0);
  result_.assign(n_, 0);
  has_result_.assign(n_, 0);
}

std::uint64_t Convergecast::combine(std::uint64_t a, std::uint64_t b) const {
  switch (op_) {
    case AggregateOp::kMin:
      return std::min(a, b);
    case AggregateOp::kMax:
      return std::max(a, b);
    case AggregateOp::kSum:
      return a + b;
  }
  return a;
}

void Convergecast::begin_down(congest::Context& ctx) {
  const NodeId v = ctx.id();
  result_[v] = acc_[v];
  has_result_[v] = 1;
  completed_.fetch_add(1, std::memory_order_relaxed);
  for (ArcId a : tree_->child_arcs[v]) ctx.send(a, {kTagDown, result_[v], 0});
}

void Convergecast::send_up_if_ready(congest::Context& ctx) {
  const NodeId v = ctx.id();
  if (sent_up_[v] || waiting_[v] != 0) return;
  sent_up_[v] = 1;
  if (v == tree_->root) {
    begin_down(ctx);
  } else {
    ctx.send(tree_->parent_arc[v], {kTagUp, acc_[v], 0});
  }
}

void Convergecast::start(congest::Context& ctx) { send_up_if_ready(ctx); }

void Convergecast::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  for (const auto& in : ctx.inbox()) {
    if (in.msg.tag == kTagUp) {
      acc_[v] = combine(acc_[v], in.msg.a);
      --waiting_[v];
    } else if (in.msg.tag == kTagDown && !has_result_[v]) {
      result_[v] = in.msg.a;
      has_result_[v] = 1;
      completed_.fetch_add(1, std::memory_order_relaxed);
      for (ArcId a : tree_->child_arcs[v]) ctx.send(a, {kTagDown, in.msg.a, 0});
    }
  }
  send_up_if_ready(ctx);
}

bool Convergecast::done() const {
  return completed_.load(std::memory_order_relaxed) == n_;
}

ForestEcho::ForestEcho(const Graph& g,
                       const std::vector<std::uint8_t>& tree_arc,
                       std::vector<EchoValue> values,
                       const std::vector<std::uint8_t>* inactive)
    : g_(&g), tree_arc_(&tree_arc), acc_(std::move(values)),
      n_(g.node_count()) {
  if (acc_.size() != n_)
    throw std::invalid_argument("forest-echo: values size != n");
  if (tree_arc.size() != g.arc_count())
    throw std::invalid_argument("forest-echo: tree_arc size != arc count");
  if (inactive != nullptr && inactive->size() != n_)
    throw std::invalid_argument("forest-echo: inactive mask size != n");
  pending_.assign(n_, 0);
  sent_arc_.assign(n_, kInvalidArc);
  got_.assign(g.arc_count(), 0);
  decided_.assign(n_, 0);
  NodeId done_upfront = 0;
  for (NodeId v = 0; v < n_; ++v) {
    if (inactive != nullptr && (*inactive)[v] != 0) {
      decided_[v] = 1;
      ++done_upfront;
      continue;
    }
    for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a)
      if (tree_arc[a]) ++pending_[v];
  }
  completed_.store(done_upfront, std::memory_order_relaxed);
}

void ForestEcho::decide(NodeId v) {
  decided_[v] = 1;
  completed_.fetch_add(1, std::memory_order_relaxed);
}

void ForestEcho::send_saturation_if_ready(congest::Context& ctx) {
  const NodeId v = ctx.id();
  if (decided_[v] || sent_arc_[v] != kInvalidArc || pending_[v] != 1) return;
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a) {
    if (!(*tree_arc_)[a] || got_[a]) continue;
    sent_arc_[v] = a;
    ctx.send(a, {kTagVal, acc_[v].first, acc_[v].second});
    return;
  }
}

void ForestEcho::start(congest::Context& ctx) {
  const NodeId v = ctx.id();
  if (decided_[v]) return;
  if (pending_[v] == 0) {
    decide(v);  // isolated in the forest: its value is the component min
    return;
  }
  send_saturation_if_ready(ctx);
}

void ForestEcho::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  if (decided_[v]) return;
  ArcId res_via = kInvalidArc;
  for (const auto& in : ctx.inbox()) {
    const EchoValue val{in.msg.a, in.msg.b};
    if (in.msg.tag == kTagVal) {
      acc_[v] = std::min(acc_[v], val);
      got_[in.via] = 1;
      --pending_[v];
    } else if (in.msg.tag == kTagRes) {
      acc_[v] = val;
      res_via = in.via;
    }
  }
  if (res_via != kInvalidArc) {
    // Resolution arrived from the decision point: adopt and relay outward.
    decide(v);
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      if ((*tree_arc_)[a] && a != res_via)
        ctx.send(a, {kTagRes, acc_[v].first, acc_[v].second});
    return;
  }
  if (pending_[v] == 0) {
    // Saturated: acc_ now covers the whole component. The saturation arc —
    // if one was sent — carried the crossing wave, so its neighbour decided
    // too and needs no resolution.
    decide(v);
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      if ((*tree_arc_)[a] && a != sent_arc_[v])
        ctx.send(a, {kTagRes, acc_[v].first, acc_[v].second});
    return;
  }
  send_saturation_if_ready(ctx);
}

bool ForestEcho::done() const {
  return completed_.load(std::memory_order_relaxed) == n_;
}

AggregateOutcome aggregate_over_tree(congest::Network& net,
                                     const SpanningTree& tree, AggregateOp op,
                                     std::vector<std::uint64_t> values,
                                     const congest::RunOptions& opts) {
  Convergecast alg(net.graph(), tree, op, std::move(values));
  const auto res = net.run(alg, opts);
  AggregateOutcome out;
  out.rounds = res.rounds;
  out.value = alg.result(tree.root);
  out.cancelled = res.cancelled;
  return out;
}

AggregateOutcome aggregate_over_tree(const Graph& g, const SpanningTree& tree,
                                     AggregateOp op,
                                     std::vector<std::uint64_t> values,
                                     const congest::RunOptions& opts) {
  congest::Network net(g);
  return aggregate_over_tree(net, tree, op, std::move(values), opts);
}

}  // namespace fc::algo
