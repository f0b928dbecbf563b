#pragma once
// Quiescence-based termination shared by the flooding algorithms (BFS,
// Bellman–Ford): the run is over once one full round passes in which no
// node sent anything.
//
// note_round() belongs in Algorithm::round_started(), which the engine
// calls exactly once per round — including rounds in which the sparse
// (event-driven) engine steps no node at all, which is precisely when the
// rule must be able to fire. note_activity() stays in step(): handlers of
// one round all observe the same round number, so the relaxed stores are
// race-free in the only sense that matters — every writer writes the same
// value. The `round >= 2` floor gives round-0 sends one delivery round
// before the rule can fire; the net effect is one idle tail round per
// execution — the price of the standard simulator convention that
// termination detection is free.

#include <atomic>
#include <cstdint>

namespace fc::congest {

class QuiescenceDetector {
 public:
  /// Call once per round from Algorithm::round_started().
  void note_round(std::uint64_t round) {
    current_.store(round, std::memory_order_relaxed);
  }
  /// Call whenever the node is about to send this round.
  void note_activity(std::uint64_t round) {
    last_activity_.store(round, std::memory_order_relaxed);
  }
  /// The done() rule: a full round has passed with no activity.
  bool quiescent() const {
    const std::uint64_t round = current_.load(std::memory_order_relaxed);
    return round >= 2 &&
           round > last_activity_.load(std::memory_order_relaxed) + 1;
  }

 private:
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> last_activity_{0};
};

}  // namespace fc::congest
