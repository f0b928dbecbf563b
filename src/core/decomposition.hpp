#pragma once
// The communication-free edge decomposition (paper Theorem 2 / Lemma 5).
//
// Split G into λ' = max(1, ⌊λ/(C ln n)⌋) edge-disjoint subgraphs by giving
// each edge a uniformly random colour derived from a shared seed and the
// edge's endpoint ids — zero rounds of communication, because both
// endpoints evaluate the same hash. Theorem 2 says each part is then a
// spanning subgraph of diameter O((C n log n)/δ) with probability
// 1 - n^{-Ω(C)}.
//
// `decompose` also runs the distributed validity check from the paper's
// remark: one BFS per part, executed concurrently (the parts are
// edge-disjoint), each costing O((n log n)/δ) rounds, plus a convergecast
// of the validity votes up a parent-graph BFS tree. The part BFS runs on
// one congest::EdgeDisjointEngine over the parts, which the Decomposition
// keeps: Theorem 1 then runs its per-part Lemma 1 pipelines on the same
// union and engine, from the trees of that same BFS.

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/runner.hpp"
#include "graph/partition.hpp"

namespace fc::core {

/// The engine knobs of the per-part BFS composite, plus the decomposition's
/// own parameters.
struct DecompositionOptions : congest::RunOptions {
  double C = 2.0;            // the constant of Theorem 2
  std::uint64_t seed = 1;    // shared randomness
  NodeId root = 0;           // BFS root used by the validity check
};

/// Move-only: `engine` points into `partition.parts`, whose elements stay
/// where they are when the Decomposition moves (adding or removing parts
/// would leave the engine dangling).
struct Decomposition {
  std::uint32_t parts = 0;
  EdgePartition partition;                 // subgraphs + edge colours
  std::vector<algo::SpanningTree> trees;   // BFS tree per part (may not span)
  std::vector<bool> spanning;              // part covers all nodes?
  /// Distributed cost: max over parts of the BFS rounds (concurrent,
  /// edge-disjoint) plus the vote convergecast (2 * parent BFS depth).
  std::uint64_t check_rounds = 0;
  std::uint64_t messages = 0;
  /// The per-part BFS was cut by an expired cancel token: the trees are
  /// truncated, so `spanning` says nothing about the decomposition.
  bool cancelled = false;
  /// The part BFS composite itself: its rounds (check_rounds without the
  /// vote), messages and parent-edge congestion.
  congest::CompositeResult bfs;
  /// The union of partition.parts and its engine, which ran the part BFS;
  /// any later composite whose instance i is bound to part i reuses it.
  std::unique_ptr<congest::EdgeDisjointEngine> engine;

  bool all_spanning() const;
  /// Max BFS-tree depth among spanning parts; depth d implies the part's
  /// diameter is between d and 2d.
  std::uint32_t max_tree_depth() const;
  /// The Theorem 2 diameter budget O((C n log n)/δ) this instance promises.
  static double diameter_budget(NodeId n, std::uint32_t min_degree, double C);
};

/// Compute the decomposition, build its engine, run one BFS per part on it
/// from opts.root, and validate.
Decomposition decompose(const Graph& g, std::uint32_t lambda,
                        const DecompositionOptions& opts = {});

}  // namespace fc::core
