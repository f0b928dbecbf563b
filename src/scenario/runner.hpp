#pragma once
// ScenarioRunner: the bridge from declarative scenarios to the CONGEST
// engine. Maps (--graph=<spec>, --algo=<name>) onto the library's
// distributed algorithms and reports the paper's cost measures — rounds,
// total messages, and max per-arc / per-edge congestion — as util/table rows.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "util/table.hpp"

namespace fc::scenario {

class GraphSpec;

/// Placement of the k batch-query sources (`sources=k`). kFirst queries
/// nodes 0..k-1 (apps::default_sources, the historical convention); kRandom
/// draws k distinct seed-keyed nodes (apps::random_sources, deterministic in
/// ScenarioConfig::seed). kUnset lets run_spec fill the mode from the spec's
/// `source_mode=` parameter and behaves like kFirst otherwise.
enum class SourceMode { kUnset, kFirst, kRandom };

/// Optional typed-result capture for callers that need the algorithm's
/// actual OUTPUT (the serve layer's typed responses), not just the cost
/// measures. Always expressed in the ids of the graph the caller passed in:
/// scenarios that internally restrict to the root's component scatter their
/// results back through the relabelling, with unreachable nodes left at
/// kInfWeight / algo::kUnreached — exactly what an unrestricted run would
/// report. Capture never changes the execution or the ScenarioResult.
struct ScenarioPayload {
  /// Per-query weighted distances (sssp: one entry; batch-sssp: k entries).
  std::vector<std::vector<Weight>> distances;
  /// Per-query hop counts (bfs: one entry; batch-bfs: k entries).
  std::vector<std::vector<std::uint32_t>> hops;
  /// MST forest edges as canonical (u, v) endpoint pairs, u < v, sorted.
  std::vector<std::pair<NodeId, NodeId>> mst_edges;
  /// The resolved query sources (bfs/sssp: the root; batch: the k sources
  /// after SourceMode placement).
  std::vector<NodeId> sources;

  void clear() {
    distances.clear();
    hops.clear();
    mst_edges.clear();
    sources.clear();
  }
};

/// Knobs shared by all scenario algorithms: the engine knobs (inherited,
/// handed to every engine execution of the scenario) plus the workload's
/// own parameters.
///
///  * telemetry: multi-phase scenarios (broadcast = BFS + pipe, MST's
///    per-phase runs, weighted-apsp's fast broadcast) share the one
///    recorder, so its snapshot holds the whole composite as consecutively
///    indexed spans (scenario_runner --telemetry=...).
///  * cancel: honoured by every scenario. A cancelled scenario sets
///    ScenarioResult::cancelled and reports the work done up to the cut;
///    weighted-apsp's rounds then also include the analytically charged
///    spanner rounds.
///  * faults: honoured by the single-execution workloads — bfs, batch-bfs,
///    leader-election, sssp, batch-sssp — and by the two-phase broadcast
///    and convergecast, which re-apply the plan from round 0 of EACH
///    phase's engine run (the fault clock is per run, so a permanent fault
///    at round r recurs at each phase's round r). mst and weighted-apsp run
///    many engine executions with no single fault clock: they reject a
///    non-empty plan with std::invalid_argument before any engine run.
///    Fault ids are interpreted against the graph the engine actually runs
///    on: a scenario that restricts to the root's component applies them to
///    the RESTRICTED ids, so plans are best paired with connected graphs
///    (`largest_cc=1`).
struct ScenarioConfig : congest::RunOptions {
  std::uint64_t seed = 1;
  /// Messages for k-broadcast style workloads; 0 means "one per node".
  std::uint64_t k = 0;
  NodeId root = 0;
  /// Stretch parameter for weighted-apsp: (2k-1)-approximation, Theorem 5.
  std::uint32_t stretch_k = 3;
  /// Source count for the batch workloads (batch-bfs, batch-sssp): queries
  /// run from nodes 0..sources-1 in ONE pipelined execution. 0 means 1.
  /// run_spec() fills this from a spec's `sources=k` parameter when the
  /// caller left it at 0.
  std::uint64_t sources = 0;
  /// Placement of those batch sources; run_spec() fills this from a spec's
  /// `source_mode=first|random` parameter when the caller left it kUnset.
  SourceMode source_mode = SourceMode::kUnset;
  /// Warm engine to reuse (serve layer's Network pool) under
  /// congest::engine_for's rule: scenarios that restrict to the root's
  /// component fall back to a fresh local engine for the restricted copy.
  /// Reuse saves the adjacency-sized slot allocations, not determinism.
  congest::Network* network = nullptr;
  /// Typed-result capture (null = off); see ScenarioPayload. The runner
  /// clear()s it before filling.
  ScenarioPayload* payload = nullptr;
};

/// One algorithm run on one graph, in paper cost measures.
struct ScenarioResult {
  std::string graph;  // display name (usually the canonical spec)
  std::string algo;
  NodeId nodes = 0;
  EdgeId edges = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t max_arc_congestion = 0;   // max sends over any directed arc
  std::uint64_t max_edge_congestion = 0;  // both directions of one edge
  /// Nearest-rank percentiles of the per-arc send distribution — how evenly
  /// the algorithm loads the graph, next to the max the theorems bound.
  /// 0 when the workload does not expose per-arc counts (weighted-apsp).
  std::uint64_t arc_p50 = 0;
  std::uint64_t arc_p99 = 0;
  bool finished = false;
  /// Some engine execution was truncated by the cancel token; the cost
  /// measures cover the work up to the cut (`finished` stays false).
  bool cancelled = false;
  std::string note;  // algorithm-specific outcome, e.g. "depth=7"
};

class ScenarioRunner {
 public:
  using AlgoFn = std::function<ScenarioResult(const Graph&,
                                              const ScenarioConfig&)>;
  using WeightedAlgoFn =
      std::function<ScenarioResult(const WeightedGraph&,
                                   const ScenarioConfig&)>;

  /// Constructs with the built-in algorithms registered: bfs, batch-bfs,
  /// leader-election, broadcast, convergecast (topology) and weighted-apsp,
  /// mst, sssp, batch-sssp (weighted).
  ScenarioRunner();

  /// Registered topology algorithm names, sorted. Weighted algorithms are
  /// listed separately so batch drivers ("--algo=all") can stay on the
  /// cheap unweighted set by default.
  std::vector<std::string> algorithms() const;
  std::vector<std::string> weighted_algorithms() const;
  bool has(const std::string& algo) const {
    return algos_.count(algo) > 0 || weighted_algos_.count(algo) > 0;
  }
  bool is_weighted(const std::string& algo) const {
    return weighted_algos_.count(algo) > 0;
  }

  /// Register (or replace) an algorithm.
  void add(const std::string& name, AlgoFn fn);
  void add_weighted(const std::string& name, WeightedAlgoFn fn);

  /// Run one algorithm on one graph. Throws std::invalid_argument for an
  /// unknown algorithm name (message lists the known ones). The Graph
  /// overload runs weighted algorithms with unit weights; the WeightedGraph
  /// overload runs topology algorithms on the underlying graph.
  ScenarioResult run(const std::string& algo, const Graph& g,
                     const std::string& graph_name,
                     const ScenarioConfig& cfg = {}) const;
  ScenarioResult run(const std::string& algo, const WeightedGraph& g,
                     const std::string& graph_name,
                     const ScenarioConfig& cfg = {}) const;

  /// Convenience: parse + build the spec, then run. A weighted algorithm
  /// gets the spec's `weights=lo..hi` weights (unit weights when absent).
  ScenarioResult run_spec(const std::string& algo, const std::string& spec,
                          const ScenarioConfig& cfg = {}) const;

 private:
  std::map<std::string, AlgoFn> algos_;
  std::map<std::string, WeightedAlgoFn> weighted_algos_;
};

/// Render results as the standard metrics table.
Table make_report(const std::vector<ScenarioResult>& results);

/// THE precedence rule for spec-level config parameters (today: sources=k
/// and source_mode=first|random): an explicit caller value wins, otherwise
/// the spec's value applies. Used
/// by ScenarioRunner::run_spec and by drivers that build graphs themselves
/// (scenario_runner's --cache path).
ScenarioConfig apply_spec_config(ScenarioConfig cfg, const GraphSpec& spec);

}  // namespace fc::scenario
