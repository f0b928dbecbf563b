#pragma once
// Learning the global parameters δ (minimum degree) and n (paper Lemma 4).
//
// δ and n are learned with one convergecast + downcast over a BFS tree in
// O(D) rounds. The edge connectivity λ is deliberately NOT computed here:
// the paper's own remark after Theorem 1 observes that λ is unnecessary —
// an exponential search over guesses λ̃ = δ, δ/2, δ/4, ... combined with the
// O((n log n)/δ)-round validity check of the Theorem 2 decomposition finds
// a usable guess at total cost O((n log n)/λ). That search lives in
// core/fast_broadcast.hpp (run_fast_broadcast_oblivious).

#include <cstdint>

#include "algo/bfs.hpp"
#include "algo/convergecast.hpp"
#include "congest/network.hpp"

namespace fc::algo {

struct LearnedParameters {
  std::uint32_t min_degree = 0;
  std::uint64_t node_count = 0;
  std::uint64_t rounds = 0;  // total CONGEST rounds spent (BFS + 2 aggregates)
  /// An engine run was cut by an expired RunOptions::cancel token: the
  /// pipeline stopped there, `rounds` covers the work up to the cut, and
  /// the learned values are not valid.
  bool cancelled = false;
};

/// Run the full Lemma 4 pipeline on `g` starting from `root`:
/// build a BFS tree, then aggregate min-degree and node count. `opts`
/// reaches all three engine runs; a non-empty `opts.faults` throws
/// std::invalid_argument before any run. The Network& form makes the
/// three runs on the caller's engine, over net.graph(); the Graph form
/// builds one.
LearnedParameters learn_parameters(congest::Network& net, NodeId root,
                                   const congest::RunOptions& opts = {});
LearnedParameters learn_parameters(const Graph& g, NodeId root,
                                   const congest::RunOptions& opts = {});

}  // namespace fc::algo
