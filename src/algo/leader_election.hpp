#pragma once
// Leader election by max-ID flooding.
//
// Every node floods the largest node id it has heard of; re-announcements
// happen only on improvement, so the protocol quiesces after O(D) rounds
// with O(m) messages per improvement wave. Afterwards every node knows the
// maximum id, and the node owning it is the leader (the paper's Lemma 2
// discussion: BFS from the leader then provides the coordination tree).

#include <atomic>
#include <cstdint>
#include <vector>

#include "congest/network.hpp"

namespace fc::algo {

/// Scheduling: a node re-floods only on improvement, which can only be
/// triggered by an incoming announcement.
class LeaderElection : public congest::Algorithm {
 public:
  explicit LeaderElection(const Graph& g);

  std::string name() const override { return "leader-election"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;
  void round_started(std::uint64_t round) override {
    current_round_.store(round, std::memory_order_relaxed);
  }

  /// The elected leader (valid once done()).
  NodeId leader() const;
  /// What node v believes the max id is.
  NodeId known_max(NodeId v) const { return static_cast<NodeId>(best_[v]); }

 private:
  const Graph* graph_;
  std::vector<std::uint64_t> best_;
  std::atomic<std::uint64_t> last_activity_{0};
  std::atomic<std::uint64_t> current_round_{0};
};

}  // namespace fc::algo
