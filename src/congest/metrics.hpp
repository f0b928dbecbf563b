#pragma once
// Cost accounting for a CONGEST execution: rounds, total messages, and
// per-edge congestion (the max number of messages that crossed any single
// edge over the whole run — the quantity Lemma 1 and Theorem 12 bound).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "congest/telemetry.hpp"
#include "graph/graph.hpp"

namespace fc::congest {

/// Max sends over any directed arc. The single definition behind every
/// report (RunResult, ScenarioResult, the MST/SSSP app reports).
inline std::uint64_t max_arc_congestion(
    std::span<const std::uint64_t> arc_sends) {
  std::uint64_t best = 0;
  for (const auto s : arc_sends) best = std::max(best, s);
  return best;
}

/// Max over edges of the sends in both directions of one edge. An empty
/// span (a default-constructed RunResult) reports 0, like an all-zero one.
inline std::uint64_t max_edge_congestion(
    const Graph& g, std::span<const std::uint64_t> arc_sends) {
  if (arc_sends.empty()) return 0;
  std::uint64_t best = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto [a, b] = g.edge_arcs(e);
    best = std::max(best, arc_sends[a] + arc_sends[b]);
  }
  return best;
}

struct RunResult {
  std::uint64_t rounds = 0;         // rounds executed (including round 0)
  std::uint64_t messages = 0;       // total messages sent
  /// Messages sent in the final executed round: they sat in the flipped
  /// write half when the loop exited and were never delivered to any
  /// handler. Nonzero mostly on runs truncated by RunOptions::max_rounds
  /// or an expired CancelToken (a finished run's last round can also leave
  /// a few in flight — e.g. a flood's last adopter announcing to its
  /// remaining neighbors).
  /// Invariant per run — cancelled or not: messages - undelivered == sum of
  /// inbox sizes ever materialized == the telemetry series' summed
  /// `delivered` column.
  std::uint64_t undelivered = 0;
  /// Fault-injection ledger (0 unless the run had RunOptions::faults):
  /// sends lost to a dead arc / crashed node (swallowed at send time — not
  /// part of `messages` — or caught in flight by a crash, which were), and
  /// sends whose payload crossed a corrupted edge (those ARE normal sends).
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_corrupted = 0;
  bool finished = false;            // algorithm reported done()
  /// The run was truncated by an expired RunOptions::cancel token (flag or
  /// deadline) before `finished`. Mutually exclusive with `finished`; a
  /// run that merely hits max_rounds reports neither.
  bool cancelled = false;
  /// Per-arc message counts (every run fills one entry per arc; EMPTY only
  /// in a default-constructed RunResult).
  std::vector<std::uint64_t> arc_sends;
  /// THIS run's telemetry (series, span, histograms); engaged only when the
  /// run had a telemetry recorder attached (RunOptions::telemetry) in a
  /// mode other than kOff. Multi-run hosts
  /// read the accumulated view from the recorder's snapshot() instead.
  std::optional<TelemetrySnapshot> telemetry;

  /// Messages that crossed edge e in either direction (0 for an empty
  /// arc_sends).
  std::uint64_t edge_congestion(const Graph& g, EdgeId e) const {
    if (arc_sends.empty()) return 0;
    const auto [a, b] = g.edge_arcs(e);
    return arc_sends[a] + arc_sends[b];
  }

  /// Max over edges of edge_congestion.
  std::uint64_t max_edge_congestion(const Graph& g) const {
    return congest::max_edge_congestion(g, arc_sends);
  }
};

}  // namespace fc::congest
