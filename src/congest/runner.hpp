#pragma once
// Composite execution of edge-disjoint sub-algorithms.
//
// Theorem 1 runs λ' independent pipelined broadcasts, one per edge-disjoint
// spanning subgraph. Because the subgraphs share no edges, executing all
// instances simultaneously is a single valid CONGEST execution on the
// parent graph: in any global round every edge carries at most the one
// message of the unique instance that owns it. The runner exploits this
// literally: an EdgeDisjointEngine runs ALL instances inside ONE engine
// execution on the block-diagonal union of the instance graphs — one round
// loop, one delivery pass, one pool — with a composite Algorithm
// multiplexing start/step/done into the per-instance blocks. The union is
// Graph::disjoint_union of the parts, so each instance's block mirrors its
// subgraph's CSR at a fixed node/arc offset, which makes the per-instance
// translation pure arithmetic: Context::block_view.
//
// One engine serves every composite over the same list of parts: Theorem
// 1 runs the part BFS and then the per-part Lemma 1 pipelines on one
// union and one Network (core::decompose builds it; core::Decomposition
// carries it). run_edge_disjoint is the one-shot form: kInterleaved builds
// a temporary engine for the call, and kSequential — one Network per
// instance, one after another — is its differential oracle, not a
// production path. The two modes are bit-identical in composite rounds,
// messages, parent congestion, per-instance rounds/finished and the
// per-arc sends (the differential tests and bench_engine's N4 rows hold
// them to that), and a reused engine is bit-identical to a fresh one,
// because Network::run resets all per-run state. Edge-disjointness and the
// parts' parent_edge maps are verified on every run, not assumed.
//
// Costs combine the same way in both modes: rounds = max over instances
// (they run concurrently), messages = sum, and per-parent-edge congestion
// is folded back through the subgraphs' parent_edge maps, reading each
// instance's slice of the per-arc sends in place.
//
// The composite takes the caller's RunOptions whole: pool, force_dense,
// telemetry, max_rounds and cancel apply to every instance (the one union
// run, or each sequential run). A cancelled composite reports
// CompositeResult::cancelled. A fault plan is refused (std::logic_error):
// union ids are an internal layout, and no caller injects faults into a
// composite. In the interleaved mode a telemetry recorder sees ONE span
// for the whole composite instead of one span per instance.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace fc::congest {

struct CompositeResult {
  std::uint64_t rounds = 0;    // max over instances
  std::uint64_t messages = 0;  // sum over instances
  bool finished = false;       // all instances finished
  /// The run was cut by an expired RunOptions::cancel token.
  bool cancelled = false;
  /// Instance i's own rounds and finished flag, in work order: what its
  /// run alone would report.
  struct Instance {
    std::uint64_t rounds = 0;
    bool finished = false;
  };
  std::vector<Instance> instances;
  /// Per-arc sends in the union's layout: instance i's arcs sit at its
  /// Graph::disjoint_union offset, the arc count of the instances before
  /// it.
  std::vector<std::uint64_t> arc_sends;
  /// Congestion per PARENT edge (messages in both directions).
  std::vector<std::uint64_t> parent_edge_congestion;

  std::uint64_t max_parent_edge_congestion() const;
};

/// One unit of concurrent work: an algorithm bound to a subgraph of the
/// parent. The Subgraph must outlive the call.
struct EdgeDisjointInstance {
  const Subgraph* part = nullptr;
  Algorithm* algorithm = nullptr;
};

/// How run_edge_disjoint executes its instances.
enum class CompositeMode : std::uint8_t {
  /// One engine run on the block-diagonal union graph, through a temporary
  /// EdgeDisjointEngine. The default: k instances pay one round loop.
  kInterleaved,
  /// Each instance on its own Network, one after another: the
  /// differential oracle of the interleaved mode.
  kSequential,
};

/// Run all instances as one concurrent execution. Throws std::logic_error
/// if an instance is null, two instances claim the same parent edge, a
/// part's parent_edge map does not fit `parent` (wrong size, or an id
/// >= parent.edge_count()), or opts.faults is a non-empty plan.
CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts = {},
                                  CompositeMode mode =
                                      CompositeMode::kInterleaved);

/// The block-diagonal union of a fixed list of parts and one Network on
/// it: the interleaved mode's engine, built once and reused by every
/// composite over the same parts. Not copyable or movable (the Network
/// points into the union); hold it by pointer to move it.
class EdgeDisjointEngine {
 public:
  /// Builds the union (Graph::disjoint_union) and its Network. The parts
  /// must outlive the engine and stay where they are. Throws
  /// std::logic_error on a null part.
  explicit EdgeDisjointEngine(std::span<const Subgraph* const> parts);
  EdgeDisjointEngine(const EdgeDisjointEngine&) = delete;
  EdgeDisjointEngine& operator=(const EdgeDisjointEngine&) = delete;

  /// One composite run: results and checks as run_edge_disjoint's
  /// kInterleaved mode. Instance i must be bound to part i of the
  /// constructor's list (same count, same Subgraph objects); other work
  /// throws std::logic_error.
  CompositeResult run(const Graph& parent,
                      std::span<const EdgeDisjointInstance> work,
                      const RunOptions& opts = {});

  /// Composite runs started on this engine.
  std::uint64_t runs_started() const { return net_.runs_started(); }

 private:
  std::vector<const Subgraph*> parts_;
  // Part i occupies union nodes [node_base_[i], node_base_[i] + n_i) and
  // arcs [arc_base_[i], arc_base_[i] + 2 m_i); inst_of_node_ inverts the
  // node ranges.
  std::vector<NodeId> node_base_;
  std::vector<ArcId> arc_base_;
  std::vector<std::uint32_t> inst_of_node_;
  Graph union_;
  Network net_;
};

}  // namespace fc::congest
