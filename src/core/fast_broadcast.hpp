#pragma once
// The paper's main result: k-broadcast in O((n log n)/δ + (k log n)/λ)
// rounds (Theorem 1), plus the λ-oblivious variant via exponential search
// (the remark after Theorem 1) and the textbook O(D + k) baseline.
//
// Pipeline of run_fast_broadcast:
//  1. Leader election + BFS on G + Lemma 3 message numbering — O(D) rounds.
//  2. Theorem 2 partition into λ' = λ/(C ln n) parts — 0 rounds.
//  3. Concurrent BFS in every part (edge-disjoint) — O((n log n)/δ) rounds.
//  4. Messages with numbers in [(i-1)K, iK) are broadcast inside part i via
//     Lemma 1 — O((n log n)/δ + (k log n)/λ) rounds, all parts concurrent.
// Total rounds = phase sums; every phase is measured, not estimated.
//
// Engines: each entry point simulates each deterministic phase once and
// builds each engine once. Phase 1 (and the oblivious variant's Lemma 4
// runs, and the textbook pipeline) run on one Network over G. Phases 2–3
// are one core::decompose call, whose union engine then runs phase 4: one
// union and one engine per partition. The oblivious search broadcasts on
// its validated probe itself, and the textbook pipeline runs on the setup
// BFS tree. The Network over G is gone before the first union engine is
// built, so at most one engine is alive at a time.
//
// Accounting: `part_bfs_rounds`, `messages` and `max_edge_congestion`
// charge the BFS whose trees Lemma 1 uses — the validated probe's for the
// oblivious variant (whose rounds and messages also count toward the
// search, as the probe that found λ̃), the setup BFS for the textbook
// baseline (counted in `setup_rounds` too). The reports equal those of
// an implementation that re-ran that BFS for the broadcast.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/pipeline_broadcast.hpp"
#include "core/decomposition.hpp"

namespace fc::core {

/// The engine knobs apply to every engine run of the broadcast — setup,
/// the oblivious variant's Lemma 4 δ-learning, per-part BFS, per-part
/// Lemma 1 pipeline, oblivious probes, the textbook pipeline. A cancelled run stops the broadcast
/// (FastBroadcastReport::cancelled). A non-empty fault plan is rejected
/// with std::invalid_argument before any run: the phases are separate
/// engine runs with no single fault clock. So is a message whose origin is
/// not a node of the graph.
struct FastBroadcastOptions : congest::RunOptions {
  double C = 2.0;           // Theorem 2 constant
  std::uint64_t seed = 1;   // shared randomness
  /// Re-seed and retry if a part fails to span (prob. n^{-Ω(C)}).
  std::uint32_t max_retries = 8;
  /// Run leader election (adds O(D) rounds). When false, node 0 is root.
  bool elect_leader = true;
  /// Diameter-budget slack multiplier for the oblivious validity check.
  double validity_slack = 4.0;
};

struct FastBroadcastReport {
  std::uint64_t k = 0;
  std::uint32_t parts = 0;
  std::uint32_t lambda_used = 0;
  // Round accounting by phase.
  std::uint64_t setup_rounds = 0;      // leader + BFS + numbering
  std::uint64_t part_bfs_rounds = 0;   // max over parts
  std::uint64_t broadcast_rounds = 0;  // max over parts
  std::uint64_t search_rounds = 0;     // oblivious only: validation sweeps
  std::uint64_t total_rounds = 0;
  // Traffic.
  std::uint64_t messages = 0;
  std::uint64_t max_edge_congestion = 0;
  // Outcome.
  bool complete = false;  // every node verified (digest) to hold all k
  /// An engine run was cut by an expired cancel token: the broadcast
  /// stopped there, the counters cover the work up to the cut, and
  /// `complete` is false. Not a failure of the algorithm.
  bool cancelled = false;
  std::uint32_t retries = 0;
  std::uint32_t search_iterations = 0;  // oblivious only

  std::string str() const;
};

/// Theorem 1: requires λ (or any lower bound on it; smaller λ means fewer
/// parts and a slower but still correct broadcast).
FastBroadcastReport run_fast_broadcast(
    const Graph& g, std::uint32_t lambda,
    std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts = {});

/// Remark after Theorem 1: no knowledge of λ. Learns δ (Lemma 4), then
/// tries λ̃ = δ, δ/2, δ/4, ... until the Theorem 2 decomposition validates
/// (all parts spanning with depth within the budget); every probe's rounds
/// are charged to `search_rounds`.
FastBroadcastReport run_fast_broadcast_oblivious(
    const Graph& g, std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts = {});

/// The textbook O(D + k) baseline (Lemma 1 on one global BFS tree),
/// including leader election, for head-to-head comparisons.
FastBroadcastReport run_textbook_broadcast(
    const Graph& g, std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts = {});

/// The paper's universal lower bound OPT >= k/λ (Theorem 3) and the
/// O(D + k) / Õ((n+k)/λ) predictions, for experiment tables.
double theorem1_prediction(NodeId n, std::uint32_t delta, std::uint32_t lambda,
                           std::uint64_t k);
double theorem3_lower_bound(std::uint64_t k, std::uint32_t lambda);

}  // namespace fc::core
