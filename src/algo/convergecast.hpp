#pragma once
// Tree convergecast + downcast: the O(depth)-round aggregation primitive
// behind Lemma 3 (item counting) and Lemma 4 (learning δ).
//
// Phase 1 (up): leaves send their value; an internal node combines its own
// value with all children's and forwards once every child reported.
// Phase 2 (down): the root's combined value is flooded back down the tree.
// After termination every node knows the aggregate.
//
// ForestEcho below is the UNROOTED sibling: the same up-then-down
// aggregation on a forest given only per-arc tree flags (no root, no child
// lists) — the shape the MST fragment trees have mid-phase.

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/network.hpp"

namespace fc::algo {

enum class AggregateOp { kMin, kMax, kSum };

/// Scheduling: progress is strictly receive-driven after the leaves' round-0
/// reports (done() counts completions, not quiescence).
class Convergecast : public congest::Algorithm {
 public:
  /// `values[v]` is node v's local input.
  Convergecast(const Graph& g, const SpanningTree& tree, AggregateOp op,
               std::vector<std::uint64_t> values);

  std::string name() const override { return "convergecast"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;

  /// The aggregate as known by node v (valid once done()).
  std::uint64_t result(NodeId v) const { return result_[v]; }
  bool has_result(NodeId v) const { return has_result_[v] != 0; }

 private:
  std::uint64_t combine(std::uint64_t a, std::uint64_t b) const;
  void send_up_if_ready(congest::Context& ctx);
  void begin_down(congest::Context& ctx);

  const SpanningTree* tree_;
  AggregateOp op_;
  std::vector<std::uint64_t> acc_;
  std::vector<std::uint32_t> waiting_;   // children not yet reported
  std::vector<std::uint8_t> sent_up_;
  std::vector<std::uint64_t> result_;
  std::vector<std::uint8_t> has_result_;
  std::atomic<NodeId> completed_{0};
  NodeId n_;
};

/// Value carried by ForestEcho: an ordered pair of words compared
/// lexicographically — e.g. an MST MOE key (weight, EdgeId), or a fragment
/// id in `.first` with `.second` zero.
using EchoValue = std::pair<std::uint64_t, std::uint64_t>;

/// Min-aggregation over an UNROOTED forest by saturation + resolution (the
/// textbook echo algorithm): every node learns the minimum EchoValue of its
/// tree component in O(component diameter) rounds with at most two messages
/// per tree edge — one saturation wave inward, one resolution wave back out.
///
/// Saturation: a node that has received values on all but one of its tree
/// arcs combines them with its own value and forwards the running minimum
/// over the remaining arc. The wave meets at a center node (or a center
/// edge, where the two saturation messages cross); the meeting point knows
/// the component minimum and decides. Resolution: the decided value is
/// relayed back over every tree arc the decision did not arrive on. A node
/// with no tree arcs decides on its own value immediately.
///
/// Termination is by decided-node count, not quiescence, so there is no
/// idle tail round. Compare with the flooding alternative (every improvement
/// re-announced over every tree arc): the echo replaces O(improvements ·
/// tree degree) messages per node with at most two per tree edge — this is
/// the convergecast that cuts the MST merge constant (see apps/mst).
///
/// `tree_arc[a] != 0` marks arc `a` as a forest arc; callers must mark both
/// directions of an edge. `inactive` (optional, nonzero = inactive) silences
/// whole components: an inactive node decides on its own value at once and
/// neither sends nor expects messages — the caller must keep every tree
/// component uniformly active or inactive (apps/mst uses this to keep
/// finished fragments quiet).
///
/// Scheduling: saturation and resolution waves are receive-driven; decided and
/// inactive nodes never run again.
class ForestEcho : public congest::Algorithm {
 public:
  /// `g`, `tree_arc`, and `inactive` (when given) must outlive the run —
  /// only `values` is taken by value.
  ForestEcho(const Graph& g, const std::vector<std::uint8_t>& tree_arc,
             std::vector<EchoValue> values,
             const std::vector<std::uint8_t>* inactive = nullptr);

  std::string name() const override { return "forest-echo"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;

  /// The component minimum as known by node v (valid once done()).
  const EchoValue& result(NodeId v) const { return acc_[v]; }
  bool decided(NodeId v) const { return decided_[v] != 0; }

 private:
  void decide(NodeId v);
  void send_saturation_if_ready(congest::Context& ctx);

  const Graph* g_;
  const std::vector<std::uint8_t>* tree_arc_;
  std::vector<EchoValue> acc_;
  std::vector<std::uint32_t> pending_;  // tree arcs not yet received on
  std::vector<ArcId> sent_arc_;         // saturation arc; kInvalidArc if none
  std::vector<std::uint8_t> got_;       // per own outgoing arc: value received
  std::vector<std::uint8_t> decided_;
  std::atomic<NodeId> completed_{0};
  NodeId n_;
};

/// Convenience wrapper: run one Convergecast over the given spanning tree
/// (the caller builds it, e.g. with run_bfs) and return the root's
/// aggregate plus the convergecast's rounds. `value` is valid only when the
/// run was not cancelled. The Network& form runs on the caller's engine,
/// over net.graph(); the Graph form builds one.
struct AggregateOutcome {
  std::uint64_t value = 0;
  std::uint64_t rounds = 0;
  bool cancelled = false;
};
AggregateOutcome aggregate_over_tree(congest::Network& net,
                                     const SpanningTree& tree, AggregateOp op,
                                     std::vector<std::uint64_t> values,
                                     const congest::RunOptions& opts = {});
AggregateOutcome aggregate_over_tree(const Graph& g, const SpanningTree& tree,
                                     AggregateOp op,
                                     std::vector<std::uint64_t> values,
                                     const congest::RunOptions& opts = {});

}  // namespace fc::algo
