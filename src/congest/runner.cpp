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

/// The checks every composite run makes before it starts: no global fault
/// plan, no null instance, every part's parent_edge map sized to its graph
/// and pointing into `parent`, and no parent edge claimed twice (concurrent
/// execution would otherwise violate bandwidth).
void check_work(const Graph& parent,
                std::span<const EdgeDisjointInstance> work,
                const RunOptions& opts) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::logic_error(
        "run_edge_disjoint: set per-instance EdgeDisjointInstance::faults, "
        "not RunOptions::faults (composite ids are internal)");
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

/// Charge instance `res`'s per-edge congestion to its parent edges.
void fold_congestion(const Subgraph& part, const RunResult& res,
                     std::vector<std::uint64_t>& parent_congestion) {
  for (EdgeId e = 0; e < part.graph.edge_count(); ++e)
    parent_congestion[part.parent_edge[e]] += res.edge_congestion(part.graph, e);
}

CompositeResult run_sequential(const Graph& parent,
                               std::span<const EdgeDisjointInstance> work,
                               const RunOptions& opts) {
  CompositeResult out;
  out.finished = true;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  out.per_instance.reserve(work.size());
  for (const auto& inst : work) {
    Network net(inst.part->graph);
    RunOptions local = opts;
    local.faults = inst.faults;
    RunResult res = net.run(*inst.algorithm, local);
    out.rounds = std::max(out.rounds, res.rounds);
    out.messages += res.messages;
    out.fault_dropped += res.fault_dropped;
    out.fault_corrupted += res.fault_corrupted;
    out.finished = out.finished && res.finished;
    out.cancelled = out.cancelled || res.cancelled;
    fold_congestion(*inst.part, res, out.parent_edge_congestion);
    out.per_instance.push_back(std::move(res));
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

  // Merge the per-instance fault plans into one union-id plan. Edge ids
  // translate by the edge prefix (= arc_base/2) because the union's edges
  // are the instances' edges, block after block.
  FaultPlan merged;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (work[i].faults == nullptr) continue;
    for (Fault f : work[i].faults->faults) {
      if (f.kind == FaultKind::kNodeCrash)
        f.id += node_base_[i];
      else if (f.kind == FaultKind::kArcDrop)
        f.id += arc_base_[i];
      else
        f.id += arc_base_[i] / 2;
      merged.faults.push_back(f);
    }
  }

  InterleavedComposite comp(work, node_base_, arc_base_, inst_of_node_);
  RunOptions local = opts;
  if (!merged.empty()) local.faults = &merged;
  const RunResult ures = net_.run(comp, local);

  out.rounds = ures.rounds;
  out.messages = ures.messages;
  out.fault_dropped = ures.fault_dropped;
  out.fault_corrupted = ures.fault_corrupted;
  out.finished = ures.finished;
  out.cancelled = ures.cancelled;
  out.per_instance.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Subgraph& part = *work[i].part;
    const auto sends = ures.arc_sends.begin() + arc_base_[i];
    RunResult res;
    res.rounds = comp.instance_rounds(i, ures.rounds);
    res.finished = comp.instance_finished(i);
    res.cancelled = ures.cancelled && !res.finished;
    res.arc_sends.assign(sends, sends + part.graph.arc_count());
    for (const std::uint64_t s : res.arc_sends) res.messages += s;
    fold_congestion(part, res, out.parent_edge_congestion);
    out.per_instance.push_back(std::move(res));
  }
  return out;
}

}  // namespace fc::congest
