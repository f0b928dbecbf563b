#include "congest/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace fc::congest {

std::uint64_t CompositeResult::max_parent_edge_congestion() const {
  std::uint64_t best = 0;
  for (std::uint64_t c : parent_edge_congestion) best = std::max(best, c);
  return best;
}

namespace {

// The interleaved mode's composite Algorithm: the engine sees one
// algorithm on the union graph; every union node belongs to exactly one
// instance block, so each handler call is translated (Context::block_view)
// and forwarded to that instance. An instance whose done() has been
// observed is no longer dispatched — the engine still consumes any
// messages that were in flight toward it, exactly as the sequential mode's
// per-instance run would have left them undelivered.
class InterleavedComposite final : public Algorithm {
 public:
  InterleavedComposite(std::span<const EdgeDisjointInstance> work,
                       std::span<const NodeId> node_base,
                       std::span<const ArcId> arc_base,
                       std::span<const std::uint32_t> inst_of_node)
      : work_(work),
        node_base_(node_base),
        arc_base_(arc_base),
        inst_of_node_(inst_of_node),
        finished_(work.size(), 0),
        finish_round_(work.size(), 0) {}

  std::string name() const override {
    return "edge-disjoint[" + std::to_string(work_.size()) + "]";
  }

  void round_started(std::uint64_t round) override {
    cur_round_ = round;
    // Finished instances get no more hooks — their sequential runs would
    // have ended already, and identity of the two modes depends on it.
    for (std::size_t i = 0; i < work_.size(); ++i)
      if (!finished_[i]) work_[i].algorithm->round_started(round);
  }

  void start(Context& ctx) override { dispatch(ctx, /*first=*/true); }
  void step(Context& ctx) override { dispatch(ctx, /*first=*/false); }

  // Polled single-threaded after each round; records the exact round each
  // instance finished, which IS that instance's sequential round count.
  bool done() const override {
    bool all = true;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      if (finished_[i]) continue;
      if (work_[i].algorithm->done()) {
        finished_[i] = 1;
        finish_round_[i] = cur_round_ + 1;
      } else {
        all = false;
      }
    }
    return all;
  }

  std::uint64_t instance_rounds(std::size_t i,
                                std::uint64_t run_rounds) const {
    return finished_[i] ? finish_round_[i] : run_rounds;
  }
  bool instance_finished(std::size_t i) const { return finished_[i] != 0; }

 private:
  void dispatch(Context& ctx, bool first) {
    const std::uint32_t i = inst_of_node_[ctx.id()];
    if (finished_[i]) return;
    Context sub =
        ctx.block_view(node_base_[i], arc_base_[i], work_[i].part->graph);
    if (first)
      work_[i].algorithm->start(sub);
    else
      work_[i].algorithm->step(sub);
  }

  std::span<const EdgeDisjointInstance> work_;
  std::span<const NodeId> node_base_;
  std::span<const ArcId> arc_base_;
  std::span<const std::uint32_t> inst_of_node_;
  std::uint64_t cur_round_ = 0;
  // Written only from done()/round_started() (single-threaded, between
  // rounds); handlers read finished_ during rounds — ordered by the pool's
  // dispatch synchronization.
  mutable std::vector<std::uint8_t> finished_;
  mutable std::vector<std::uint64_t> finish_round_;
};

/// The checks every composite run makes before it starts: no fault plan,
/// no null instance, every part's parent_edge map sized to its graph
/// and pointing into `parent`, and no parent edge claimed twice (concurrent
/// execution would otherwise violate bandwidth).
void check_work(const Graph& parent,
                std::span<const EdgeDisjointInstance> work,
                const RunOptions& opts) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::logic_error(
        "run_edge_disjoint: fault plans are not supported (composite ids "
        "are internal)");
  std::vector<std::uint8_t> claimed(parent.edge_count(), 0);
  for (const auto& inst : work) {
    if (!inst.part || !inst.algorithm)
      throw std::logic_error("run_edge_disjoint: null instance");
    if (inst.part->parent_edge.size() != inst.part->graph.edge_count())
      throw std::logic_error(
          "run_edge_disjoint: a part's parent_edge map does not match its "
          "edge count");
    for (EdgeId e : inst.part->parent_edge) {
      if (e >= parent.edge_count())
        throw std::logic_error(
            "run_edge_disjoint: a part names an edge the parent does not "
            "have (a part of another graph?)");
      if (claimed[e])
        throw std::logic_error(
            "run_edge_disjoint: parent edge claimed by two instances");
      claimed[e] = 1;
    }
  }
}

/// Charge an instance's per-edge congestion to its parent edges, reading
/// `sends` (the instance's per-arc sends, in its own arc ids) in place.
void fold_congestion(const Subgraph& part, std::span<const std::uint64_t> sends,
                     std::vector<std::uint64_t>& parent_congestion) {
  for (EdgeId e = 0; e < part.graph.edge_count(); ++e) {
    const auto [a, b] = part.graph.edge_arcs(e);
    parent_congestion[part.parent_edge[e]] += sends[a] + sends[b];
  }
}

CompositeResult run_sequential(const Graph& parent,
                               std::span<const EdgeDisjointInstance> work,
                               const RunOptions& opts) {
  CompositeResult out;
  out.finished = true;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  out.instances.reserve(work.size());
  for (const auto& inst : work) {
    Network net(inst.part->graph);
    const RunResult res = net.run(*inst.algorithm, opts);
    out.rounds = std::max(out.rounds, res.rounds);
    out.messages += res.messages;
    out.finished = out.finished && res.finished;
    out.cancelled = out.cancelled || res.cancelled;
    out.instances.push_back({res.rounds, res.finished});
    fold_congestion(*inst.part, res.arc_sends, out.parent_edge_congestion);
    out.arc_sends.insert(out.arc_sends.end(), res.arc_sends.begin(),
                         res.arc_sends.end());
  }
  return out;
}

std::vector<const Graph*> part_graphs(std::span<const Subgraph* const> parts) {
  std::vector<const Graph*> out;
  out.reserve(parts.size());
  for (const Subgraph* part : parts) {
    if (part == nullptr)
      throw std::logic_error("run_edge_disjoint: null instance");
    out.push_back(&part->graph);
  }
  return out;
}

}  // namespace

CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts,
                                  CompositeMode mode) {
  if (mode == CompositeMode::kSequential) {
    check_work(parent, work, opts);
    return run_sequential(parent, work, opts);
  }
  std::vector<const Subgraph*> parts;
  parts.reserve(work.size());
  for (const auto& inst : work) parts.push_back(inst.part);
  return EdgeDisjointEngine(parts).run(parent, work, opts);
}

EdgeDisjointEngine::EdgeDisjointEngine(std::span<const Subgraph* const> parts)
    : parts_(parts.begin(), parts.end()),
      union_(Graph::disjoint_union(part_graphs(parts))),
      net_(union_) {
  // disjoint_union lays block i at the node and arc totals of the blocks
  // before it, so union arc == arc_base_[i] + instance arc.
  node_base_.reserve(parts_.size());
  arc_base_.reserve(parts_.size());
  inst_of_node_.resize(union_.node_count());
  NodeId node = 0;
  ArcId arc = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Graph& sub = parts_[i]->graph;
    node_base_.push_back(node);
    arc_base_.push_back(arc);
    std::fill_n(inst_of_node_.begin() + node, sub.node_count(),
                static_cast<std::uint32_t>(i));
    node += sub.node_count();
    arc += sub.arc_count();
  }
}

CompositeResult EdgeDisjointEngine::run(
    const Graph& parent, std::span<const EdgeDisjointInstance> work,
    const RunOptions& opts) {
  check_work(parent, work, opts);
  bool bound = work.size() == parts_.size();
  for (std::size_t i = 0; bound && i < work.size(); ++i)
    bound = work[i].part == parts_[i];
  if (!bound)
    throw std::logic_error(
        "EdgeDisjointEngine::run: instance i must be bound to the engine's "
        "part i");
  CompositeResult out;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  if (work.empty()) {
    out.finished = true;
    return out;
  }

  InterleavedComposite comp(work, node_base_, arc_base_, inst_of_node_);
  RunResult ures = net_.run(comp, opts);
  out.rounds = ures.rounds;
  out.messages = ures.messages;
  out.finished = ures.finished;
  out.cancelled = ures.cancelled;
  out.instances.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Subgraph& part = *work[i].part;
    out.instances.push_back(
        {comp.instance_rounds(i, ures.rounds), comp.instance_finished(i)});
    fold_congestion(part,
                    std::span<const std::uint64_t>(ures.arc_sends)
                        .subspan(arc_base_[i], part.graph.arc_count()),
                    out.parent_edge_congestion);
  }
  out.arc_sends = std::move(ures.arc_sends);
  return out;
}

}  // namespace fc::congest
