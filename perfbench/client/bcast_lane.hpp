#pragma once
// Broadcast lane: Theorem 1 broadcasts on one graph with seeded messages.
//
// One operation runs, on the same graph and messages, the three broadcasts
// of core/fast_broadcast.hpp: run_fast_broadcast with the given λ,
// run_fast_broadcast_oblivious, and the textbook run_textbook_broadcast.
// Every broadcast must verify its digest (`complete`) and repeat the report
// of the first op on the same placement exactly.
//
// The traced op additionally replays each broadcast through the public
// calls the library makes (leader election, BFS, Lemma 3 numbering,
// Lemma 4, decompose probes, the partition, the two edge-disjoint
// composites, the textbook pipeline) with a span around each call, and
// requires the replay's per-phase rounds and messages to equal the
// library's FastBroadcastReport.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algo/pipeline_broadcast.hpp"
#include "common.hpp"
#include "core/fast_broadcast.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

struct BcastInput {
  std::string spec;       // graph spec, built through the scenario Registry
  std::uint32_t lambda;   // λ handed to run_fast_broadcast
  std::uint64_t k;        // messages placed by the workload seed
};

class BcastLane {
 public:
  BcastLane(BcastInput input, std::uint64_t seed);

  /// Build the graph and place the messages, the `placement`-th placement
  /// of the workload seed; returns the seconds it took.
  double setup(std::uint64_t placement);

  /// One op through the library; `measure` = false checks it without
  /// keeping its samples (the warm-up op).
  void run_op(Ledger& ledger, bool measure = true);
  void run_traced_op(Tracer& tracer, std::uint64_t op_id, Ledger& ledger);

  /// Untraced ops measured so far.
  std::size_t ops() const { return fast_ms_.size(); }
  Metrics end_to_end() const;
  Metrics per_layer() const;
  /// Library time and traced-replay time of the same traced ops.
  double library_ms() const { return library_ms_; }
  double replay_ms() const { return replay_ms_; }

 private:
  std::vector<std::string> check(const char* what,
                                 const fc::core::FastBroadcastReport& rep,
                                 std::optional<fc::core::FastBroadcastReport>&
                                     first) const;

  BcastInput input_;
  std::uint64_t seed_;
  std::optional<fc::Graph> graph_;
  std::vector<fc::algo::PlacedMessage> messages_;
  fc::core::FastBroadcastOptions opts_;

  std::optional<fc::core::FastBroadcastReport> first_fast_, first_oblivious_,
      first_textbook_;
  std::vector<double> fast_ms_, oblivious_ms_, textbook_ms_;
  std::vector<double> fast_rounds_, oblivious_rounds_, textbook_rounds_;

  // Traced mode: per-op layer values, keyed like per_layer()'s metrics.
  std::vector<std::vector<double>> layer_values_;
  double library_ms_ = 0;
  double replay_ms_ = 0;
};

}  // namespace perfbench
