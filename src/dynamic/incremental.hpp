#pragma once
// Incremental re-execution after a churn batch: wake only the endpoints of
// changed edges (plus the nodes the deletions invalidated) and re-run the
// affected region, with results BIT-IDENTICAL to a full recompute.
//
// BFS / SSSP — label-correcting repair on the CONGEST engine:
//  * Deletions: a node is ORPHANED iff its shortest-path-tree parent edge
//    was deleted or its parent is orphaned (cascade over the parent
//    forest). Orphans' labels are reset to infinity. Every non-orphan's
//    parent chain to the source is intact, so its old label is still
//    ACHIEVED by a path in the new graph — never too low, never stale-high
//    (a label that is too high would need every shortest path broken,
//    which orphans it). Labels are therefore a correct upper bound.
//  * The engine then runs a label-correcting flood seeded from the WOKEN
//    set: endpoints of inserted edges plus finite neighbors of orphans.
//    Woken finite nodes announce their label at round 0; any node that
//    strictly improves adopts (lowest arc on ties) and re-announces;
//    quiescence terminates. The final labels equal a from-scratch run's
//    distances exactly (see the proof sketch in incremental.cpp), at every
//    pool size and under both the sparse and dense engines.
//  Only DISTANCES are pinned to the full recompute; parent POINTERS may
//  differ (both are valid shortest-path forests under the lowest-arc rule
//  applied to different relaxation orders). The parents the repair keeps
//  are always a consistent forest — exactly what the next batch's orphan
//  cascade needs.
//
// MST — serial candidate Kruskal (the engine's Borůvka is already pinned
// bit-identical to kruskal_msf by the static tests, so the dynamic layer
// repairs against the same serial oracle):
//  * candidates = surviving old-forest edges + inserted edges + edges
//    crossing the surviving forest's components. Any MSF edge of the new
//    graph outside that set would close a cycle with an intact old-tree
//    path on which it has the maximum (weight, EdgeId) key — contradiction
//    — so Kruskal over the candidates returns kruskal_msf(G') EXACTLY,
//    edge set and all, at a fraction of the edges scanned.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "dynamic/churn.hpp"
#include "graph/weighted_graph.hpp"

namespace fc::dynamic {

/// Internal label infinity (both BFS hops and SSSP weighted distances fit
/// far below it; sums with any edge weight cannot overflow).
inline constexpr std::uint64_t kInfLabel =
    std::numeric_limits<std::uint64_t>::max() / 4;

/// The engine knobs of the one repair run, plus the warm engine to run it
/// on.
struct IncrementalOptions : congest::RunOptions {
  /// Warm engine to reuse under congest::engine_for's rule.
  congest::Network* network = nullptr;
};

struct IncrementalResult {
  congest::RunResult run;
  std::uint64_t woken = 0;     // nodes seeded into the repair flood
  std::uint64_t orphaned = 0;  // labels invalidated by the delete cascade
};

/// Incremental BFS distances from a fixed source. Usage: recompute() once
/// on the base graph, then apply_batch() per churn batch (passing the graph
/// REBUILT after that batch). distances() is comparable entry-for-entry to
/// algo::DistributedBfs::distances() on the same graph.
class DynamicBfs {
 public:
  explicit DynamicBfs(NodeId source) : source_(source) {}

  IncrementalResult recompute(const Graph& g,
                              const IncrementalOptions& opts = {});
  IncrementalResult apply_batch(const Graph& g, const UpdateBatch& batch,
                                const IncrementalOptions& opts = {});

  NodeId source() const { return source_; }
  /// Hop distances with graph/properties.hpp kUnreached for unreachable.
  std::vector<std::uint32_t> distances() const;
  std::span<const std::uint64_t> labels() const { return dist_; }
  std::span<const NodeId> parents() const { return parent_; }

 private:
  NodeId source_;
  std::vector<std::uint64_t> dist_;
  std::vector<NodeId> parent_;
};

/// Incremental SSSP twin of DynamicBfs over a WeightedGraph (weights must
/// be endpoint-stable across batches — dynamic_weight, not the static
/// EdgeId-keyed rule). distances() is comparable entry-for-entry to
/// fc::dijkstra / apps::DistributedBellmanFord.
class DynamicSssp {
 public:
  explicit DynamicSssp(NodeId source) : source_(source) {}

  IncrementalResult recompute(const WeightedGraph& g,
                              const IncrementalOptions& opts = {});
  IncrementalResult apply_batch(const WeightedGraph& g,
                                const UpdateBatch& batch,
                                const IncrementalOptions& opts = {});

  NodeId source() const { return source_; }
  /// Weighted distances with kInfWeight for unreachable.
  std::vector<Weight> distances() const;
  std::span<const std::uint64_t> labels() const { return dist_; }
  std::span<const NodeId> parents() const { return parent_; }

 private:
  NodeId source_;
  std::vector<std::uint64_t> dist_;
  std::vector<NodeId> parent_;
};

/// Incremental minimum spanning forest: recompute() is a full Kruskal,
/// apply_batch() the candidate repair. forest() is the sorted EdgeId set
/// in the CURRENT graph — equal to kruskal_msf(g) after every batch.
/// apply_batch() re-anchors the carried forest arithmetically via
/// UpdateBatch::deleted_ids, so batches must come from ChurnSchedule /
/// DynamicScenario (hand-built batches need deleted_ids populated too).
class DynamicMst {
 public:
  void recompute(const WeightedGraph& g);
  void apply_batch(const WeightedGraph& g, const UpdateBatch& batch);

  const std::vector<EdgeId>& forest() const { return forest_; }
  Weight total_weight() const { return weight_; }
  /// Edges the last apply_batch() ran Kruskal over (the work-saving the
  /// bench reports against a full recompute's m).
  std::uint64_t last_candidates() const { return last_candidates_; }

 private:
  bool ready_ = false;
  std::vector<EdgeId> forest_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;  // forest as endpoints
  Weight weight_ = 0;
  std::uint64_t last_candidates_ = 0;
};

}  // namespace fc::dynamic
