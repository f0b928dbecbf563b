#include "scenario/runner.hpp"

#include <optional>
#include <stdexcept>

#include "algo/bfs.hpp"
#include "algo/convergecast.hpp"
#include "algo/leader_election.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "apps/batch_sssp.hpp"
#include "apps/mst.hpp"
#include "apps/sssp.hpp"
#include "apps/weighted_apsp.hpp"
#include "congest/network.hpp"
#include "graph/mincut.hpp"
#include "graph/properties.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace fc::scenario {

namespace {

/// The `sources=k` query set under the configured SourceMode: nodes 0..k-1
/// (kFirst / kUnset) or k distinct seed-keyed nodes (kRandom).
std::vector<NodeId> batch_sources(const Graph& g, const ScenarioConfig& cfg) {
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  return cfg.source_mode == SourceMode::kRandom
             ? apps::random_sources(g, k, cfg.seed)
             : apps::default_sources(g, k);
}

NodeId checked_root(const Graph& g, const ScenarioConfig& cfg) {
  if (cfg.root >= g.node_count())
    throw std::invalid_argument(
        "scenario: root " + std::to_string(cfg.root) +
        " out of range for a graph with n=" + std::to_string(g.node_count()));
  return cfg.root;
}

/// Fold one engine run into the result (phases add; congestion is over the
/// whole execution, so arc sends accumulate across phases).
void accumulate(ScenarioResult& r, const congest::RunResult& cost,
                std::vector<std::uint64_t>& arc_sends) {
  r.rounds += cost.rounds;
  r.messages += cost.messages;
  r.finished = r.finished && cost.finished;
  r.cancelled = r.cancelled || cost.cancelled;
  if (arc_sends.empty()) arc_sends.assign(cost.arc_sends.size(), 0);
  for (std::size_t a = 0; a < cost.arc_sends.size(); ++a)
    arc_sends[a] += cost.arc_sends[a];
}

void finish(ScenarioResult& r, const Graph& g,
            const std::vector<std::uint64_t>& arc_sends) {
  r.nodes = g.node_count();
  r.edges = g.edge_count();
  r.max_arc_congestion = congest::max_arc_congestion(arc_sends);
  r.max_edge_congestion = congest::max_edge_congestion(g, arc_sends);
  const congest::HistogramSummary h = congest::summarize_counts(arc_sends);
  r.arc_p50 = h.p50;
  r.arc_p99 = h.p99;
}

ScenarioResult run_bfs_scenario(const Graph& g, const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  std::optional<congest::Network> local;
  congest::Network& net = congest::engine_for(g, cfg.network, local);
  algo::DistributedBfs bfs(g, checked_root(g, cfg));
  const auto cost = net.run(bfs, cfg);
  std::vector<std::uint64_t> sends;
  accumulate(r, cost, sends);
  finish(r, g, sends);
  if (cfg.payload != nullptr) {
    cfg.payload->hops.push_back(bfs.distances());
    cfg.payload->sources = {bfs.root()};
  }
  r.note = "depth=" + std::to_string(bfs.depth()) +
           " reached=" + std::to_string(bfs.reached_count());
  return r;
}

/// k-source batch workloads answer queries from the SourceMode placement
/// (nodes 0..k-1 by default) in one pipelined execution (the documented
/// `sources=k` convention). Unlike the single-source tree workloads there
/// is no root-component restriction: each query naturally covers its own
/// source's component.
ScenarioResult run_batch_bfs_scenario(const Graph& g,
                                      const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  std::optional<congest::Network> local;
  congest::Network& net = congest::engine_for(g, cfg.network, local);
  algo::BatchBfs alg(g, batch_sources(g, cfg));
  std::vector<std::uint64_t> sends;
  accumulate(r, net.run(alg, cfg), sends);
  finish(r, g, sends);
  if (cfg.payload != nullptr) {
    for (std::uint32_t s = 0; s < alg.k(); ++s)
      cfg.payload->hops.push_back(alg.source_distances(s));
    cfg.payload->sources = alg.sources();
  }
  NodeId reached_lo = g.node_count(), reached_hi = 0;
  std::uint32_t depth = 0;
  for (std::uint32_t s = 0; s < alg.k(); ++s) {
    const NodeId reached = alg.reached_count(s);
    reached_lo = std::min(reached_lo, reached);
    reached_hi = std::max(reached_hi, reached);
    depth = std::max(depth, alg.depth(s));
  }
  r.note = "k=" + std::to_string(k) + " depth_max=" + std::to_string(depth) +
           " reached=" + std::to_string(reached_lo) + ".." +
           std::to_string(reached_hi);
  return r;
}

ScenarioResult run_batch_sssp_scenario(const WeightedGraph& g,
                                       const ScenarioConfig& cfg) {
  ScenarioResult r;
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  const apps::BatchSsspOptions opts{cfg, cfg.network};
  auto rep = apps::batch_sssp(g, batch_sources(g.graph(), cfg), opts);
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  finish(r, g.graph(), rep.arc_sends);
  if (cfg.payload != nullptr) {
    cfg.payload->sources = rep.sources;
    cfg.payload->distances = std::move(rep.dist);
  }
  NodeId reached_lo = g.graph().node_count(), reached_hi = 0;
  Weight dist_hi = 0;
  for (std::uint32_t s = 0; s < rep.sources.size(); ++s) {
    reached_lo = std::min(reached_lo, rep.reached[s]);
    reached_hi = std::max(reached_hi, rep.reached[s]);
    dist_hi = std::max(dist_hi, rep.max_dist[s]);
  }
  r.note = "k=" + std::to_string(k) + " reached=" +
           std::to_string(reached_lo) + ".." + std::to_string(reached_hi) +
           " max_dist=" + std::to_string(dist_hi);
  return r;
}

ScenarioResult run_leader_scenario(const Graph& g, const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  std::optional<congest::Network> local;
  congest::Network& net = congest::engine_for(g, cfg.network, local);
  algo::LeaderElection alg(g);
  const auto cost = net.run(alg, cfg);
  std::vector<std::uint64_t> sends;
  accumulate(r, cost, sends);
  finish(r, g, sends);
  r.note = cost.finished ? "leader=" + std::to_string(alg.leader()) : "-";
  return r;
}

/// Tree and single-source workloads (broadcast, convergecast, mst, sssp)
/// need a connected graph, but scenario families like R-MAT are naturally
/// disconnected. Restrict such runs to the root's component (relabelled to
/// dense ids via the shared fc::restrict_to_component rule) and record the
/// restriction in the note, instead of refusing the workload. `induced` is
/// engaged only when restricted; resolve the graph to run on via get() so
/// the struct stays safely movable (no pointer into itself).
struct Workload {
  NodeId root;
  std::optional<Graph> induced;  // storage when restricted
  std::string note;              // "" or " cc=<reached>/<n>"
  const Graph& get(const Graph& full) const {
    return induced ? *induced : full;
  }
};

std::string restriction_note(const ComponentRestriction& r, NodeId n) {
  return " cc=" + std::to_string(r.reached) + "/" + std::to_string(n);
}

Workload root_component(const Graph& g, NodeId root) {
  Workload w{root, std::nullopt, ""};
  ComponentRestriction r = restrict_to_component(g, root);
  if (r.is_identity(g)) return w;
  w.root = r.root;
  w.note = restriction_note(r, g.node_count());
  w.induced = std::move(r.graph);
  return w;
}

ScenarioResult run_broadcast_scenario(const Graph& full,
                                      const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const Workload w = root_component(full, checked_root(full, cfg));
  const Graph& g = w.get(full);
  const NodeId root = w.root;
  const std::uint64_t k = cfg.k != 0 ? cfg.k : g.node_count();
  Rng rng(cfg.seed);
  std::vector<algo::PlacedMessage> msgs;
  msgs.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(g.node_count())), i, rng()});

  // Both phases share one engine (run() resets per-run state): the warm
  // pooled Network when the run is unrestricted, a single local one else.
  std::vector<std::uint64_t> sends;
  std::optional<congest::Network> local;
  congest::Network& net = congest::engine_for(g, cfg.network, local);
  algo::DistributedBfs bfs(g, root);
  accumulate(r, net.run(bfs, cfg), sends);
  const auto tree = algo::extract_tree(g, bfs);

  algo::PipelineBroadcast pipe(g, tree, std::move(msgs));
  accumulate(r, net.run(pipe, cfg), sends);
  finish(r, g, sends);

  bool complete = true;
  for (NodeId v = 0; v < g.node_count() && complete; ++v)
    complete = pipe.digest(v) == pipe.expected_digest();
  r.note = "k=" + std::to_string(k) +
           (complete ? " delivered" : " INCOMPLETE") + w.note;
  r.finished = r.finished && complete;
  return r;
}

ScenarioResult run_convergecast_scenario(const Graph& full,
                                         const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const Workload w = root_component(full, checked_root(full, cfg));
  const Graph& g = w.get(full);
  const NodeId root = w.root;
  std::vector<std::uint64_t> sends;
  std::optional<congest::Network> local;
  congest::Network& net = congest::engine_for(g, cfg.network, local);
  algo::DistributedBfs bfs(g, root);
  accumulate(r, net.run(bfs, cfg), sends);
  const auto tree = algo::extract_tree(g, bfs);

  // Aggregate sum of node ids: every node can verify n(n-1)/2.
  std::vector<std::uint64_t> values(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) values[v] = v;
  algo::Convergecast agg(g, tree, algo::AggregateOp::kSum, std::move(values));
  accumulate(r, net.run(agg, cfg), sends);
  finish(r, g, sends);
  r.note = "sum=" + std::to_string(agg.result(root)) + w.note;
  return r;
}

/// Weighted counterpart of Workload/root_component: the same shared
/// restriction, carrying edge weights over via kept_edges. The relabelling
/// (new_id, kept_edges) is retained so payload capture can scatter results
/// back into FULL-graph ids; both are empty for an identity restriction.
struct WeightedWorkload {
  NodeId root;
  std::optional<WeightedGraph> induced;  // engaged only when restricted
  std::string note;
  std::vector<NodeId> new_id;      // full node id -> run id (empty=identity)
  std::vector<EdgeId> kept_edges;  // run EdgeId -> full EdgeId
  const WeightedGraph& get(const WeightedGraph& full) const {
    return induced ? *induced : full;
  }
  /// Scatter a run-graph distance vector back to full-graph ids; nodes
  /// outside the run component stay at kInfWeight — exactly the distances
  /// an unrestricted single-source run would report.
  std::vector<Weight> full_distances(const std::vector<Weight>& run_dist,
                                     NodeId full_n) const {
    if (!induced) return run_dist;
    std::vector<Weight> out(full_n, kInfWeight);
    for (NodeId v = 0; v < full_n; ++v)
      if (new_id[v] != kInvalidNode) out[v] = run_dist[new_id[v]];
    return out;
  }
};

WeightedWorkload weighted_root_component(const WeightedGraph& wg,
                                         NodeId root) {
  const Graph& g = wg.graph();
  WeightedWorkload w{root, std::nullopt, "", {}, {}};
  ComponentRestriction r = restrict_to_component(g, root);
  if (r.is_identity(g)) return w;
  std::vector<Weight> weights;
  weights.reserve(r.kept_edges.size());
  for (const EdgeId e : r.kept_edges) weights.push_back(wg.weight(e));
  w.root = r.root;
  w.note = restriction_note(r, g.node_count());
  w.new_id = std::move(r.new_id);
  w.kept_edges = std::move(r.kept_edges);
  w.induced = WeightedGraph(std::move(r.graph), std::move(weights));
  return w;
}

ScenarioResult run_weighted_apsp_scenario(const WeightedGraph& full,
                                          const ScenarioConfig& cfg) {
  ScenarioResult r;
  const WeightedWorkload w =
      weighted_root_component(full, checked_root(full.graph(), cfg));
  const WeightedGraph& g = w.get(full);
  r.nodes = g.graph().node_count();
  r.edges = g.graph().edge_count();
  if (r.nodes < 2) {
    r.finished = true;
    r.note = "trivial component" + w.note;
    return r;
  }
  const std::uint32_t lambda =
      std::max(1u, estimate_edge_connectivity(g.graph(), cfg.seed).value);
  apps::WeightedApspOptions opts;
  opts.seed = cfg.seed;
  opts.broadcast = core::FastBroadcastOptions{cfg};
  const auto report =
      apps::approximate_apsp_weighted(g, lambda, cfg.stretch_k, opts);
  r.rounds = report.total_rounds;
  r.messages = report.broadcast_report.messages;
  r.max_edge_congestion = report.broadcast_report.max_edge_congestion;
  r.finished = report.broadcast_report.complete;
  r.cancelled = report.broadcast_report.cancelled;
  r.note = "stretch<=" + std::to_string(2 * cfg.stretch_k - 1) +
           " lambda=" + std::to_string(lambda) +
           " spanner=" + std::to_string(report.spanner.edges.size()) + w.note;
  return r;
}

ScenarioResult run_mst_scenario(const WeightedGraph& full,
                                const ScenarioConfig& cfg) {
  ScenarioResult r;
  const WeightedWorkload w =
      weighted_root_component(full, checked_root(full.graph(), cfg));
  const WeightedGraph& g = w.get(full);
  const auto rep = apps::distributed_mst(g, cfg);
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  finish(r, g.graph(), rep.arc_sends);
  if (cfg.payload != nullptr) {
    cfg.payload->sources = {cfg.root};
    cfg.payload->mst_edges.reserve(rep.tree_edges.size());
    for (const EdgeId e : rep.tree_edges) {
      const EdgeId full_e = w.kept_edges.empty() ? e : w.kept_edges[e];
      cfg.payload->mst_edges.emplace_back(full.graph().edge_u(full_e),
                                          full.graph().edge_v(full_e));
    }
  }
  r.note = "mst_weight=" + std::to_string(rep.total_weight) +
           " edges=" + std::to_string(rep.tree_edges.size()) +
           " phases=" + std::to_string(rep.phases) + w.note;
  return r;
}

ScenarioResult run_sssp_scenario(const WeightedGraph& full,
                                 const ScenarioConfig& cfg) {
  ScenarioResult r;
  const WeightedWorkload w =
      weighted_root_component(full, checked_root(full.graph(), cfg));
  const WeightedGraph& g = w.get(full);
  if (g.graph().node_count() < 2) {
    r.nodes = g.graph().node_count();
    r.finished = true;
    r.note = "trivial component" + w.note;
    if (cfg.payload != nullptr) {
      std::vector<Weight> dist(full.graph().node_count(), kInfWeight);
      dist[cfg.root] = 0;
      cfg.payload->distances.push_back(std::move(dist));
      cfg.payload->sources = {cfg.root};
    }
    return r;
  }
  const apps::SsspOptions opts{cfg, cfg.network};
  const auto rep = apps::distributed_sssp(g, w.root, opts);
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  finish(r, g.graph(), rep.arc_sends);
  if (cfg.payload != nullptr) {
    cfg.payload->distances.push_back(
        w.full_distances(rep.dist, full.graph().node_count()));
    cfg.payload->sources = {cfg.root};
  }
  r.note = "reached=" + std::to_string(rep.reached) +
           " max_dist=" + std::to_string(rep.max_dist) + w.note;
  return r;
}

}  // namespace

ScenarioRunner::ScenarioRunner() {
  add("bfs", run_bfs_scenario);
  add("batch-bfs", run_batch_bfs_scenario);
  add("leader-election", run_leader_scenario);
  add("broadcast", run_broadcast_scenario);
  add("convergecast", run_convergecast_scenario);
  add_weighted("weighted-apsp", run_weighted_apsp_scenario);
  add_weighted("mst", run_mst_scenario);
  add_weighted("sssp", run_sssp_scenario);
  add_weighted("batch-sssp", run_batch_sssp_scenario);
}

std::vector<std::string> ScenarioRunner::algorithms() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [name, _] : algos_) out.push_back(name);
  return out;
}

std::vector<std::string> ScenarioRunner::weighted_algorithms() const {
  std::vector<std::string> out;
  out.reserve(weighted_algos_.size());
  for (const auto& [name, _] : weighted_algos_) out.push_back(name);
  return out;
}

void ScenarioRunner::add(const std::string& name, AlgoFn fn) {
  algos_[name] = std::move(fn);
}

void ScenarioRunner::add_weighted(const std::string& name, WeightedAlgoFn fn) {
  weighted_algos_[name] = std::move(fn);
}

namespace {

[[noreturn]] void unknown_algorithm(const std::string& algo,
                                    std::vector<std::string> names,
                                    const std::vector<std::string>& weighted) {
  names.insert(names.end(), weighted.begin(), weighted.end());
  std::string known;
  for (const auto& name : names) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw std::invalid_argument("scenario: unknown algorithm '" + algo +
                              "'; known: " + known);
}

}  // namespace

ScenarioResult ScenarioRunner::run(const std::string& algo, const Graph& g,
                                   const std::string& graph_name,
                                   const ScenarioConfig& cfg) const {
  const auto it = algos_.find(algo);
  if (it == algos_.end()) {
    if (is_weighted(algo)) {
      // Topology-only caller: weighted algorithms see unit weights.
      std::vector<Weight> unit(g.edge_count(), 1);
      return run(algo, WeightedGraph(g, std::move(unit)), graph_name, cfg);
    }
    unknown_algorithm(algo, algorithms(), weighted_algorithms());
  }
  if (cfg.payload != nullptr) cfg.payload->clear();
  ScenarioResult r = it->second(g, cfg);
  r.graph = graph_name;
  r.algo = algo;
  return r;
}

ScenarioResult ScenarioRunner::run(const std::string& algo,
                                   const WeightedGraph& g,
                                   const std::string& graph_name,
                                   const ScenarioConfig& cfg) const {
  const auto it = weighted_algos_.find(algo);
  if (it == weighted_algos_.end()) {
    if (algos_.count(algo) > 0)  // topology algorithm: weights are ignored
      return run(algo, g.graph(), graph_name, cfg);
    unknown_algorithm(algo, algorithms(), weighted_algorithms());
  }
  if (cfg.payload != nullptr) cfg.payload->clear();
  ScenarioResult r = it->second(g, cfg);
  r.graph = graph_name;
  r.algo = algo;
  return r;
}

ScenarioConfig apply_spec_config(ScenarioConfig cfg, const GraphSpec& spec) {
  if (cfg.sources == 0 && spec.has("sources"))
    cfg.sources = spec.require_uint("sources");
  if (cfg.source_mode == SourceMode::kUnset && spec.has("source_mode"))
    cfg.source_mode = spec.params().at("source_mode") == "random"
                          ? SourceMode::kRandom
                          : SourceMode::kFirst;
  return cfg;
}

ScenarioResult ScenarioRunner::run_spec(const std::string& algo,
                                        const std::string& spec,
                                        const ScenarioConfig& cfg) const {
  const GraphSpec parsed = GraphSpec::parse(spec);
  const ScenarioConfig effective = apply_spec_config(cfg, parsed);
  if (is_weighted(algo)) {
    const WeightedGraph g = Registry::instance().build_weighted(parsed);
    return run(algo, g, parsed.to_string(), effective);
  }
  const Graph g = Registry::instance().build(parsed);
  return run(algo, g, parsed.to_string(), effective);
}

Table make_report(const std::vector<ScenarioResult>& results) {
  Table table({"graph", "algo", "n", "m", "rounds", "messages", "max arc",
               "arc p50", "arc p99", "max edge", "done", "note"});
  for (const auto& r : results)
    table.add_row({r.graph, r.algo, Table::num(std::size_t{r.nodes}),
                   Table::num(std::size_t{r.edges}),
                   Table::num(std::size_t{r.rounds}),
                   Table::num(std::size_t{r.messages}),
                   Table::num(std::size_t{r.max_arc_congestion}),
                   Table::num(std::size_t{r.arc_p50}),
                   Table::num(std::size_t{r.arc_p99}),
                   Table::num(std::size_t{r.max_edge_congestion}),
                   r.finished ? "yes" : "NO", r.note});
  return table;
}

}  // namespace fc::scenario
