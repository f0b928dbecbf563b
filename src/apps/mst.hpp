#pragma once
// Distributed minimum spanning tree in the Borůvka/GHS fragment-merging
// style, on the CONGEST engine.
//
// Fragments start as single nodes and merge along minimum outgoing edges
// (MOEs). Edge keys are (weight, EdgeId) — a total order, so every fragment
// has a UNIQUE MOE and the resulting forest is the unique minimum spanning
// forest under the perturbed weights: the distributed edge set matches the
// serial Kruskal reference (fc::kruskal_msf) exactly, not just by weight.
//
// Each Borůvka phase is a short sequence of engine executions whose costs
// accumulate into one report (the same idiom ScenarioRunner uses for BFS +
// broadcast):
//
//  1. Announce. One round — every node sends its fragment id over every arc
//     (≤ 2m messages) and derives its local MOE candidate (cheapest incident
//     edge leaving the fragment) from the answers.
//  2. MOE aggregation. Every node learns its fragment's minimum candidate
//     key over the fragment's tree arcs by algo::ForestEcho — saturation +
//     resolution up and down the unrooted fragment tree, at most TWO
//     messages per tree edge and no quiescence tail. The unique node whose
//     local candidate IS the fragment minimum is the "winner".
//  3. Merge. Winners send CONNECT over their MOE arc (marking it a tree arc
//     on both sides; a 2-round execution), then a second ForestEcho over
//     the merged tree names the merged fragment by its minimum member
//     fragment id.
//
// Fragments that have no outgoing edge (their component's forest is
// complete) go fully silent: they are masked out of the announce and both
// echoes, so a finished component stops paying the per-phase announce
// constant.
//
// O(log n) phases (fragment count at least halves per phase); each
// aggregation runs in O(fragment diameter) rounds, so the total is
// O(n log n) rounds worst case. Messages: the announce costs ≤ 2m per
// phase and the aggregations O(tree edges) per phase;
// `announce_messages` / `merge_messages` in the report split the two. On
// a disconnected graph every component ends as one fragment and the
// result is the minimum spanning forest.

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/weighted_graph.hpp"

namespace fc::apps {

/// The engine knobs apply to every phase execution: max_rounds caps each
/// one; a telemetry recorder sees each run as a named span ("mst/announce",
/// "mst/connect", ...) with fragment leaders annotating "mst/phase=<p>";
/// a cancelled phase stops the Borůvka loop with the forest built so far.
/// A non-empty fault plan is rejected (std::invalid_argument): the phases
/// are separate engine runs, so there is no single fault clock.
using MstOptions = congest::RunOptions;

struct MstReport {
  /// Minimum-spanning-forest edges, EdgeIds sorted ascending.
  std::vector<EdgeId> tree_edges;
  Weight total_weight = 0;
  /// Borůvka phases executed (merges happened); the final verification
  /// sweep that finds no outgoing edge is not counted.
  std::uint32_t phases = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// Messages spent announcing fragment ids (≤ 2m per phase).
  std::uint64_t announce_messages = 0;
  /// Messages spent aggregating MOE minima, connecting, and renaming merged
  /// fragments.
  std::uint64_t merge_messages = 0;
  /// Per-arc sends summed over every phase (whole-execution congestion).
  std::vector<std::uint64_t> arc_sends;
  bool finished = false;
  /// Some phase execution was truncated by an expired cancel token;
  /// tree_edges hold the merges committed before the cut.
  bool cancelled = false;
  /// Final fragment id per node: the minimum NodeId of its component.
  std::vector<NodeId> fragment;

  /// Max sends over any directed arc / both directions of any edge.
  std::uint64_t max_arc_congestion() const;
  std::uint64_t max_edge_congestion(const Graph& g) const;
};

/// Run distributed Borůvka on `g` (connected or not; weights nonnegative by
/// WeightedGraph's invariant). Deterministic: the report is bit-identical
/// for every thread count. Throws std::invalid_argument for a non-empty
/// opts.faults, before any engine run.
MstReport distributed_mst(const WeightedGraph& g, const MstOptions& opts = {});

}  // namespace fc::apps
