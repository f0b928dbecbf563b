#pragma once
// Compact immutable undirected simple graph in CSR form.
//
// Terminology used across the library:
//  * node  — vertex id in [0, n)
//  * edge  — undirected edge id in [0, m); endpoints stored as (u < v)
//  * arc   — directed half-edge id in [0, 2m). Arc ids coincide with
//            positions in the CSR adjacency array, so the arcs leaving node v
//            are exactly the contiguous range [offset(v), offset(v+1)).
//
// Arcs are the unit of communication in the CONGEST simulator: one message
// may traverse each arc per round, so per-arc slots index directly into
// flat buffers with no hashing.
//
// Thread-safety: a Graph is immutable after construction; every const
// accessor is safe to call concurrently from any number of threads (the
// simulator's parallel round loop relies on this). All accessors are O(1)
// except find_arc/has_edge (O(deg v)) and edge_list/describe (O(m) / O(n)).
// Accessors do not bounds-check their ids; passing v >= node_count() or
// a/e >= arc/edge_count() is undefined behaviour.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fc {

class ThreadPool;

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using ArcId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);
inline constexpr ArcId kInvalidArc = static_cast<ArcId>(-1);

class Graph {
 public:
  Graph() = default;

  /// Build from an undirected edge list over nodes [0, n).
  /// Throws std::invalid_argument on self-loops, duplicate edges, or
  /// endpoints >= n: the library works with *simple* graphs only (the paper's
  /// Lemma 5 provably fails on multigraphs; see its footnote 1). The error
  /// is the same for every input size and pool: the first self-loop or
  /// out-of-range endpoint in input order, and "duplicate edge" only when
  /// there is neither.
  ///
  /// One algorithm builds every input, in O(T * n + m) work and O(T * n)
  /// transient scratch on a T-thread pool: per-chunk degree histograms,
  /// prefix-sum offsets, per-chunk cursor scatter, then a linear
  /// duplicate check that reuses each chunk's cursors as stamps. The layout
  /// is DETERMINISTIC: the arc at CSR position offsets[v] + j is the j-th
  /// input edge incident to v, independent of the thread count.
  ///
  /// The two-argument overloads only choose the threads: the process-global
  /// pool for inputs with >= 2^15 edges and n <= 4m, the calling thread
  /// otherwise (tiny or ultra-sparse inputs, where the O(T * n) scratch
  /// would dominate). An explicit `pool` runs the build on that pool — the
  /// knob the determinism tests and the TSAN CI job use. `edges` is only
  /// read; the caller may pass the same span to concurrent builds.
  static Graph from_edges(NodeId n,
                          std::span<const std::pair<NodeId, NodeId>> edges);
  static Graph from_edges(NodeId n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);
  static Graph from_edges(NodeId n,
                          std::span<const std::pair<NodeId, NodeId>> edges,
                          ThreadPool& pool);

  /// The single-threaded reference implementation (hash-set duplicate
  /// detection), with the same layout and the same errors as from_edges.
  /// It is the oracle of the parallel-CSR tests and bench_micro; the
  /// library itself never calls it.
  static Graph from_edges_serial(
      NodeId n, std::span<const std::pair<NodeId, NodeId>> edges);

  /// The block-diagonal union of `blocks`: block i's nodes, arcs and edges
  /// follow those of blocks 0..i-1, each shifted by the totals before it.
  /// The CSR arrays are laid end to end with those offsets added, in
  /// O(n + m) and with no validation (each block is already a simple
  /// graph). The layout equals from_edges over the concatenation of the
  /// blocks' offset edge lists: block i's arc a is union arc a + 2 m_<i,
  /// where m_<i counts the edges of blocks 0..i-1 — the property
  /// congest::EdgeDisjointEngine's offset translation rests on.
  static Graph disjoint_union(std::span<const Graph* const> blocks);

  NodeId node_count() const { return n_; }
  EdgeId edge_count() const { return static_cast<EdgeId>(edge_u_.size()); }
  ArcId arc_count() const { return static_cast<ArcId>(arc_head_.size()); }

  std::uint32_t degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v, ordered by increasing arc id.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {arc_head_.data() + offsets_[v], degree(v)};
  }

  /// First arc leaving v; arcs of v are [arc_begin(v), arc_end(v)).
  ArcId arc_begin(NodeId v) const { return offsets_[v]; }
  ArcId arc_end(NodeId v) const { return offsets_[v + 1]; }

  NodeId arc_head(ArcId a) const { return arc_head_[a]; }
  NodeId arc_tail(ArcId a) const { return arc_tail_[a]; }
  /// The opposite direction of the same undirected edge.
  ArcId arc_reverse(ArcId a) const { return arc_rev_[a]; }
  /// Undirected edge underlying the arc.
  EdgeId arc_edge(ArcId a) const { return arc_edge_[a]; }

  /// Canonical endpoints of edge e with edge_u(e) < edge_v(e).
  NodeId edge_u(EdgeId e) const { return edge_u_[e]; }
  NodeId edge_v(EdgeId e) const { return edge_v_[e]; }
  /// The two arcs of edge e: (u->v, v->u).
  std::pair<ArcId, ArcId> edge_arcs(EdgeId e) const {
    return {edge_arc_[e], arc_rev_[edge_arc_[e]]};
  }

  /// Arc v -> w, or kInvalidArc when {v, w} is not an edge. O(deg v) scan.
  ArcId find_arc(NodeId v, NodeId w) const;
  bool has_edge(NodeId v, NodeId w) const {
    return find_arc(v, w) != kInvalidArc;
  }

  /// All edges as canonical (u, v) pairs, indexed by EdgeId.
  std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  /// Human-readable one-line description (n, m, degree range).
  std::string describe() const;

 private:
  NodeId n_ = 0;
  std::vector<ArcId> offsets_;     // size n+1
  std::vector<NodeId> arc_head_;   // size 2m
  std::vector<NodeId> arc_tail_;   // size 2m
  std::vector<ArcId> arc_rev_;     // size 2m
  std::vector<EdgeId> arc_edge_;   // size 2m
  std::vector<NodeId> edge_u_;     // size m
  std::vector<NodeId> edge_v_;     // size m
  std::vector<ArcId> edge_arc_;    // size m; the u->v arc
};

/// A subgraph over the same node set, with a mapping back to parent edges.
/// Node ids are shared with the parent, so distributed algorithms can run on
/// the subgraph while referring to the parent's nodes.
struct Subgraph {
  Graph graph;
  std::vector<EdgeId> parent_edge;  // subgraph EdgeId -> parent EdgeId
};

/// Build the subgraph keeping exactly the listed parent edges.
Subgraph make_subgraph(const Graph& parent, std::span<const EdgeId> keep);

}  // namespace fc
