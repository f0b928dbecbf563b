#pragma once
// Serve lane: one live scenario_serve daemon on a pipe, driven closed-loop
// by this process with a seeded repeating cycle of three query classes.
//
//   warm    sssp with payload on the hot spec from a seeded root; must be
//           a pool hit that reuses the engine, and its distances must
//           equal a serial Dijkstra computed here.
//   cold    bfs on one of kColdSpecs corpus-backed specs, visited
//           round-robin; more specs than the pool holds, so every visit is
//           a pool miss served from the corpus.
//   update  one churn batch on the dynamic spec, then one sssp on it,
//           timed from the first byte sent to the second answer.
//
// start() is the set-up: it starts a daemon on a fresh corpus and warms it
// (every cold spec generated into the corpus, the hot and dynamic entries
// built). stop() audits that daemon: its stats deltas over its cycles
// must show corpus_loads = cold ops, graph_builds = 0 and
// stale_rebuilds = update ops, and it must exit 0. A run may measure on
// several daemons in turn.
//
// The traced cycle sends each line to the daemon, submits it to an
// in-process serve::Service (whole-call time), and replays it through the
// public calls Service makes (parse, pool acquire, scenario run, serialize,
// dynamic advance, pool install) with a span around each call. All three
// answers must be identical. A cold miss is followed by a probe that times
// its two stages alone: the corpus load and the engine build.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

enum class QueryClass { kWarm, kCold, kUpdate };
inline constexpr QueryClass kClasses[] = {QueryClass::kWarm, QueryClass::kCold,
                                          QueryClass::kUpdate};
const char* class_name(QueryClass c);

class ServeLane {
 public:
  /// `serve_bin`: the scenario_serve executable. `work_dir`: work space
  /// for the corpus (emptied at every set-up).
  ServeLane(std::string serve_bin, std::string work_dir, std::uint64_t seed,
            bool traced);
  ~ServeLane();
  ServeLane(const ServeLane&) = delete;
  ServeLane& operator=(const ServeLane&) = delete;

  /// Start a daemon on a fresh corpus and warm it up; returns the seconds
  /// from spawn to the last warm-up answer.
  double start();

  /// One cycle: one op of each class, in the run's seeded order. The
  /// tracer is used (and must be non-null) in traced mode only. With
  /// `measure` = false the cycle is checked but its latencies are not kept.
  void run_cycle(Tracer* tracer, std::uint64_t& op_id, Ledger& ledger,
                 bool measure = true);

  /// Audit the daemon's stats deltas over its cycles and stop it.
  void stop(Ledger& ledger);

  Metrics end_to_end() const;
  Metrics per_layer() const;
  /// In-process Service time and traced-replay time of the same ops.
  double service_ms() const;
  double replay_ms() const { return replay_ms_; }

 private:
  struct State;
  std::unique_ptr<State> s_;
  double busy_ms_ = 0;  // summed op latencies: the daemon's busy time
  double replay_ms_ = 0;
};

}  // namespace perfbench
