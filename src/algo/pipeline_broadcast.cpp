#include "algo/pipeline_broadcast.hpp"

#include <stdexcept>

namespace fc::algo {

namespace {
constexpr std::uint32_t kTagUp = 7;
constexpr std::uint32_t kTagDown = 8;
}  // namespace

PipelineBroadcast::PipelineBroadcast(const Graph& g, const SpanningTree& tree,
                                     std::vector<PlacedMessage> messages)
    : tree_(&tree), k_(messages.size()), n_(g.node_count()) {
  if (tree.covered != g.node_count())
    throw std::invalid_argument("pipeline-broadcast: tree does not span graph");
  up_queue_.resize(n_);
  down_queue_.resize(n_);
  received_.assign(n_, 0);
  digest_.assign(n_, 0);
  for (const auto& m : messages) {
    if (m.origin >= n_)
      throw std::invalid_argument("pipeline-broadcast: bad origin");
    expected_digest_ += message_digest(m.id, m.payload);
    const Item it{m.id, m.payload};
    if (m.origin == tree.root) {
      record(tree.root, it);
      down_queue_[tree.root].push_back(it);
    } else {
      up_queue_[m.origin].push_back(it);
    }
  }
  // Degenerate case: with no messages at all, everyone is complete from the
  // start (record() handles the k > 0 cases, including a root that already
  // holds every item).
  if (k_ == 0) completed_.store(n_, std::memory_order_relaxed);
}

void PipelineBroadcast::record(NodeId v, const Item& it) {
  digest_[v] += message_digest(it.id, it.payload);
  ++received_[v];
  if (received_[v] == k_ && k_ > 0)
    completed_.fetch_add(1, std::memory_order_relaxed);
}

void PipelineBroadcast::start(congest::Context& ctx) {
  const NodeId v = ctx.id();
  // Kick off both pipelines.
  if (v != tree_->root && !up_queue_[v].empty()) {
    ctx.send(tree_->parent_arc[v], {kTagUp, up_queue_[v].front().id,
                                    up_queue_[v].front().payload});
    up_queue_[v].pop_front();
  }
  if (!down_queue_[v].empty()) {
    const Item it = down_queue_[v].front();
    down_queue_[v].pop_front();
    for (ArcId a : tree_->child_arcs[v]) ctx.send(a, {kTagDown, it.id, it.payload});
  }
  if (!up_queue_[v].empty() || !down_queue_[v].empty()) ctx.request_wakeup();
}

void PipelineBroadcast::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  for (const auto& in : ctx.inbox()) {
    const Item it{in.msg.a, in.msg.b};
    if (in.msg.tag == kTagUp) {
      if (v == tree_->root) {
        record(v, it);
        down_queue_[v].push_back(it);
      } else {
        up_queue_[v].push_back(it);
      }
    } else {  // kTagDown
      record(v, it);
      if (!tree_->child_arcs[v].empty()) down_queue_[v].push_back(it);
    }
  }
  if (v != tree_->root && !up_queue_[v].empty()) {
    ctx.send(tree_->parent_arc[v], {kTagUp, up_queue_[v].front().id,
                                    up_queue_[v].front().payload});
    up_queue_[v].pop_front();
  }
  if (!down_queue_[v].empty()) {
    const Item it = down_queue_[v].front();
    down_queue_[v].pop_front();
    for (ArcId a : tree_->child_arcs[v]) ctx.send(a, {kTagDown, it.id, it.payload});
  }
  if (!up_queue_[v].empty() || !down_queue_[v].empty()) ctx.request_wakeup();
}

bool PipelineBroadcast::done() const {
  return completed_.load(std::memory_order_relaxed) == n_;
}

BroadcastOutcome broadcast_via_tree(const Graph& g, NodeId root,
                                    std::vector<PlacedMessage> messages) {
  BroadcastOutcome out;
  auto bfs = run_bfs(g, root);
  out.rounds += bfs.cost.rounds;
  out.messages += bfs.cost.messages;

  congest::Network net(g);
  PipelineBroadcast alg(g, bfs.tree, std::move(messages));
  const auto res = net.run(alg);
  out.rounds += res.rounds;
  out.messages += res.messages;
  out.max_edge_congestion = res.max_edge_congestion(g);
  out.complete = res.finished;
  return out;
}

}  // namespace fc::algo
