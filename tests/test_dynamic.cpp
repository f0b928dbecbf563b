// The dynamics differential grid: everything in src/dynamic is pinned
// against an independent oracle.
//
//  * Churn schedules are pure functions of (spec, batch): replaying a spec
//    reproduces the exact edge sequence, deleted_ids carries the remap
//    contract, and endpoint-keyed weights survive delete + reinsert.
//  * Incremental BFS / SSSP / MST repair is BIT-IDENTICAL to a full
//    recompute AND to the serial references (bfs_distances, dijkstra,
//    kruskal_msf) after every batch, at engine pools 1/2/8 and under both
//    the sparse and dense engines.
//  * Every registered scenario algorithm reports identical cost measures
//    on churned graphs across pool sizes and engines.
//  * Fault injection semantics: a round-0 drop equals removing the element
//    from the graph; a crash isolates the node and drops the mail in
//    flight to it; a fault scheduled after quiescence is a no-op; counters
//    account drops and corruptions; bad ids throw before the run starts.
//  * The resilient-broadcast engine drive (real kEdgeCorrupt faults)
//    reports the exact numbers of the analytic model, adversary by
//    adversary.
//  * run_edge_disjoint refuses a fault plan: union ids are internal.
//  * A randomized wakeup fuzz (seed printed on failure; extend with
//    DYNAMIC_FUZZ_SEEDS=s1,s2,...) holds the event-driven parallel repair
//    to the dense serial reference.

#include "dynamic/incremental.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "apps/resilient.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/runner.hpp"
#include "core/decomposition.hpp"
#include "dynamic/scenario.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fc::dynamic {
namespace {

// ---------------------------------------------------------------- churn --

TEST(Churn, ReplayIsDeterministic) {
  const char* spec = "rmat:n=128,deg=6,seed=7,churn=0.05,updates=3xmix";
  DynamicScenario a = DynamicScenario::parse(spec);
  DynamicScenario b = DynamicScenario::parse(spec);
  for (int i = 0; i < 3; ++i) {
    const UpdateBatch ba = a.advance();
    const UpdateBatch bb = b.advance();
    EXPECT_EQ(ba.deleted, bb.deleted);
    EXPECT_EQ(ba.deleted_ids, bb.deleted_ids);
    EXPECT_EQ(ba.inserted, bb.inserted);
  }
  ASSERT_EQ(a.graph().edge_count(), b.graph().edge_count());
  for (EdgeId e = 0; e < a.graph().edge_count(); ++e) {
    EXPECT_EQ(a.graph().edge_u(e), b.graph().edge_u(e));
    EXPECT_EQ(a.graph().edge_v(e), b.graph().edge_v(e));
  }
}

TEST(Churn, DeletedIdsCarryTheRemapContract) {
  DynamicScenario sc =
      DynamicScenario::parse("rmat:n=128,deg=6,seed=3,churn=0.1,updates=2xmix");
  for (int b = 0; b < 2; ++b) {
    // Snapshot the pre-batch edge list, advance, and check every claim the
    // UpdateBatch doc makes about positions.
    std::vector<std::pair<NodeId, NodeId>> before;
    for (EdgeId e = 0; e < sc.graph().edge_count(); ++e)
      before.emplace_back(sc.graph().edge_u(e), sc.graph().edge_v(e));
    const UpdateBatch batch = sc.advance();
    const Graph& g = sc.graph();

    ASSERT_EQ(batch.deleted_ids.size(), batch.deleted.size());
    for (std::size_t i = 0; i < batch.deleted.size(); ++i) {
      if (i > 0) EXPECT_LT(batch.deleted_ids[i - 1], batch.deleted_ids[i]);
      EXPECT_EQ(before.at(batch.deleted_ids[i]), batch.deleted[i]);
    }
    // Survivors: new id = old id - rank(old id in deleted_ids).
    std::size_t rank = 0;
    for (EdgeId e = 0; e < before.size(); ++e) {
      if (rank < batch.deleted_ids.size() && batch.deleted_ids[rank] == e) {
        ++rank;
        continue;
      }
      const EdgeId ne = e - static_cast<EdgeId>(rank);
      EXPECT_EQ(before[e].first, g.edge_u(ne));
      EXPECT_EQ(before[e].second, g.edge_v(ne));
    }
    // Inserted edges occupy the last inserted.size() ids, in order.
    const EdgeId m = g.edge_count();
    const EdgeId ins = static_cast<EdgeId>(batch.inserted.size());
    for (EdgeId i = 0; i < ins; ++i) {
      EXPECT_EQ(batch.inserted[i].first, g.edge_u(m - ins + i));
      EXPECT_EQ(batch.inserted[i].second, g.edge_v(m - ins + i));
    }
  }
}

TEST(Churn, WeightsAreEndpointStable) {
  const scenario::WeightRange range{1, 1000};
  const Weight w = dynamic_weight(17, 42, range, 5);
  EXPECT_EQ(dynamic_weight(42, 17, range, 5), w);  // symmetric
  EXPECT_EQ(dynamic_weight(17, 42, range, 5), w);  // pure
  EXPECT_GE(w, range.lo);
  EXPECT_LE(w, range.hi);
  // A dynamic spec keeps an edge's weight across batches: every weight in
  // every rebuilt graph obeys the same endpoint rule.
  DynamicScenario sc = DynamicScenario::parse(
      "torus:rows=8,cols=8,weights=1..64,churn=0.05,updates=3xmix");
  for (int b = 0; b < 3; ++b) {
    sc.advance();
    const WeightedGraph& wg = sc.weighted();
    for (EdgeId e = 0; e < wg.graph().edge_count(); ++e)
      EXPECT_EQ(wg.weight(e),
                dynamic_weight(wg.graph().edge_u(e), wg.graph().edge_v(e),
                               {1, 64}, sc.seed()));
  }
}

TEST(Churn, RejectsNonDynamicAndMalformedSpecs) {
  EXPECT_THROW(DynamicScenario::parse("rmat:n=64,deg=4,seed=1"),
               std::invalid_argument);
  EXPECT_THROW(DynamicScenario::parse("rmat:n=64,deg=4,seed=1,updates=3"),
               std::invalid_argument);  // updates= without churn=
  EXPECT_THROW(DynamicScenario::parse("rmat:n=64,deg=4,seed=1,churn=0"),
               std::invalid_argument);
  EXPECT_THROW(DynamicScenario::parse("rmat:n=64,deg=4,seed=1,churn=1.5"),
               std::invalid_argument);
}

// ---------------------------------------------- incremental differential --

struct EngineConfig {
  std::size_t threads;
  bool force_dense;
};

const EngineConfig kEngines[] = {
    {1, false}, {2, false}, {8, false}, {1, true}, {8, true},
};

const char* const kDynamicSpecs[] = {
    "rmat:n=256,deg=6,seed=7,churn=0.05,updates=3xmix",
    "torus:rows=12,cols=12,weights=1..64,churn=0.04,updates=3xmix",
    "dumbbell:s=48,bridges=2,weights=1..9,churn=0.02,updates=3xmix",
};

TEST(Incremental, BitIdenticalToFullRecomputeAndSerialOracles) {
  for (const char* spec : kDynamicSpecs) {
    SCOPED_TRACE(spec);
    for (const EngineConfig& ec : kEngines) {
      SCOPED_TRACE(std::string("threads=") + std::to_string(ec.threads) +
                   (ec.force_dense ? " dense" : " sparse"));
      ThreadPool tp(ec.threads);
      IncrementalOptions opts;
      opts.pool = &tp;
      opts.force_dense = ec.force_dense;

      DynamicScenario sc = DynamicScenario::parse(spec);
      DynamicBfs bfs(0);
      DynamicSssp sssp(0);
      DynamicMst mst;
      bfs.recompute(sc.graph(), opts);
      sssp.recompute(sc.weighted(), opts);
      mst.recompute(sc.weighted());

      for (std::uint64_t b = 0; b < sc.batches_declared(); ++b) {
        SCOPED_TRACE(std::string("batch=") + std::to_string(b));
        const UpdateBatch batch = sc.advance();
        const Graph& g = sc.graph();
        const WeightedGraph& wg = sc.weighted();

        const IncrementalResult r = bfs.apply_batch(g, batch, opts);
        EXPECT_TRUE(r.run.finished);
        EXPECT_EQ(bfs.distances(), bfs_distances(g, 0));
        DynamicBfs fresh_bfs(0);
        fresh_bfs.recompute(g, opts);
        EXPECT_EQ(bfs.distances(), fresh_bfs.distances());

        sssp.apply_batch(wg, batch, opts);
        EXPECT_EQ(sssp.distances(), dijkstra(wg, 0));

        mst.apply_batch(wg, batch);
        EXPECT_EQ(mst.forest(), kruskal_msf(wg));
        EXPECT_LE(mst.last_candidates(), g.edge_count());
      }
    }
  }
}

TEST(Incremental, ApplyBeforeRecomputeThrows) {
  DynamicScenario sc =
      DynamicScenario::parse("rmat:n=64,deg=4,seed=1,churn=0.05");
  const UpdateBatch batch = sc.advance();
  DynamicBfs bfs(0);
  EXPECT_THROW(bfs.apply_batch(sc.graph(), batch), std::logic_error);
  DynamicMst mst;
  EXPECT_THROW(mst.apply_batch(sc.weighted(), batch), std::logic_error);
}

TEST(Incremental, RepairTouchesAFractionOfTheGraph) {
  // The point of the subsystem: at low churn the woken set is a small
  // fraction of n. This is the cheap structural proxy for the bench's
  // speedup claim, kept in the tier-1 suite.
  DynamicScenario sc =
      DynamicScenario::parse("rmat:n=1024,deg=8,seed=5,churn=0.005,updates=3");
  DynamicBfs bfs(0);
  bfs.recompute(sc.graph());
  for (int b = 0; b < 3; ++b) {
    const UpdateBatch batch = sc.advance();
    const IncrementalResult r = bfs.apply_batch(sc.graph(), batch);
    EXPECT_EQ(bfs.distances(), bfs_distances(sc.graph(), 0));
    EXPECT_LT(r.woken, sc.graph().node_count() / 4);
  }
}

// Every registered scenario algorithm, on a churned topology, reports the
// same cost measures at every pool size and on both engines — churn feeds
// the algorithms ordinary (if oddly laid out) graphs, and the engine's
// determinism guarantee must hold on them.
TEST(Incremental, AllRegisteredAlgorithmsDeterministicOnChurnedGraphs) {
  DynamicScenario sc = DynamicScenario::parse(
      "rmat:n=128,deg=6,seed=11,weights=1..50,churn=0.1,updates=2xmix");
  for (int b = 0; b < 2; ++b) sc.advance();

  scenario::ScenarioRunner runner;
  std::vector<std::string> algos = runner.algorithms();
  for (const std::string& a : runner.weighted_algorithms())
    algos.push_back(a);
  ASSERT_GE(algos.size(), 9u);

  for (const std::string& algo : algos) {
    SCOPED_TRACE(algo);
    scenario::ScenarioResult want;
    bool first = true;
    for (const EngineConfig& ec : kEngines) {
      SCOPED_TRACE(std::string("threads=") + std::to_string(ec.threads) +
                   (ec.force_dense ? " dense" : " sparse"));
      ThreadPool tp(ec.threads);
      scenario::ScenarioConfig cfg;
      cfg.pool = &tp;
      cfg.force_dense = ec.force_dense;
      if (algo.rfind("batch", 0) == 0) cfg.sources = 3;
      const scenario::ScenarioResult got =
          runner.run(algo, sc.weighted(), "churned", cfg);
      EXPECT_TRUE(got.finished);
      if (first) {
        want = got;
        first = false;
        continue;
      }
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.max_arc_congestion, want.max_arc_congestion);
      EXPECT_EQ(got.max_edge_congestion, want.max_edge_congestion);
      EXPECT_EQ(got.arc_p50, want.arc_p50);
      EXPECT_EQ(got.arc_p99, want.arc_p99);
      EXPECT_EQ(got.note, want.note);
    }
  }
}

// ------------------------------------------------------ fault semantics --

std::vector<std::uint32_t> bfs_under_faults(const Graph& g, NodeId root,
                                            const congest::FaultPlan& plan,
                                            congest::RunResult* out = nullptr) {
  algo::DistributedBfs alg(g, root);
  congest::Network net(g);
  congest::RunOptions ro;
  ro.faults = &plan;
  const congest::RunResult res = net.run(alg, ro);
  EXPECT_TRUE(res.finished);
  if (out != nullptr) *out = res;
  return alg.distances();
}

Graph without_edge(const Graph& g, EdgeId drop) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (e != drop) edges.emplace_back(g.edge_u(e), g.edge_v(e));
  return Graph::from_edges(g.node_count(), edges);
}

Graph without_node(const Graph& g, NodeId v) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (g.edge_u(e) != v && g.edge_v(e) != v)
      edges.emplace_back(g.edge_u(e), g.edge_v(e));
  return Graph::from_edges(g.node_count(), edges);
}

TEST(Faults, EdgeDropAtRoundZeroEqualsRemoval) {
  Rng rng(3);
  const Graph g = gen::random_regular(64, 6, rng);
  for (const EdgeId e : {EdgeId{0}, EdgeId{17}, g.edge_count() - 1}) {
    SCOPED_TRACE(e);
    congest::FaultPlan plan;
    plan.drop_edge(0, e);
    EXPECT_EQ(bfs_under_faults(g, 0, plan), bfs_distances(without_edge(g, e), 0));
  }
}

TEST(Faults, NodeCrashAtRoundZeroIsolatesTheNode) {
  Rng rng(4);
  const Graph g = gen::random_regular(64, 6, rng);
  const NodeId victim = 23;
  congest::FaultPlan plan;
  plan.crash_node(0, victim);
  const auto got = bfs_under_faults(g, 0, plan);
  auto want = bfs_distances(without_node(g, victim), 0);
  want[victim] = kUnreached;  // the crashed node never hears the flood
  EXPECT_EQ(got, want);
}

TEST(Faults, NodeCrashDropsTheMailInFlightToIt) {
  // Crash a neighbour of the root at round 1, while the root's round-0
  // flood message to it sits in the read half. Against the same crash at
  // round 0, where the root's send is swallowed at send time, the
  // distances and the drop count agree, and the ledger holds exactly one
  // more message: the one sent, then lost with the node.
  const Graph g = scenario::Registry::instance().build(
      scenario::GraphSpec::parse("random_regular:n=600,d=4,seed=9"));
  const NodeId root = 0;
  const NodeId victim = g.arc_head(g.arc_begin(root));
  const auto crash_at = [&](std::uint64_t round, const EngineConfig& ec) {
    congest::FaultPlan plan;
    plan.crash_node(round, victim);
    ThreadPool tp(ec.threads);
    congest::RunOptions ro;
    ro.faults = &plan;
    ro.pool = &tp;
    ro.force_dense = ec.force_dense;
    algo::DistributedBfs alg(g, root);
    congest::Network net(g);
    congest::RunResult res = net.run(alg, ro);
    EXPECT_TRUE(res.finished);
    return std::pair(alg.distances(), std::move(res));
  };
  const auto [early_dist, early] = crash_at(0, {1, false});
  const auto [late_dist, late] = crash_at(1, {1, false});
  EXPECT_EQ(late_dist, early_dist);
  EXPECT_EQ(late_dist[victim], kUnreached);
  EXPECT_EQ(late.messages, early.messages + 1);
  // One flood message toward the victim per neighbour, in both runs.
  EXPECT_EQ(early.fault_dropped, g.degree(victim));
  EXPECT_EQ(late.fault_dropped, early.fault_dropped);
  for (const EngineConfig& ec : kEngines) {
    SCOPED_TRACE(std::string("threads=") + std::to_string(ec.threads) +
                 (ec.force_dense ? " dense" : " sparse"));
    const auto [dist, res] = crash_at(1, ec);
    EXPECT_EQ(dist, late_dist);
    EXPECT_EQ(res.rounds, late.rounds);
    EXPECT_EQ(res.messages, late.messages);
    EXPECT_EQ(res.fault_dropped, late.fault_dropped);
    EXPECT_EQ(res.arc_sends, late.arc_sends);
  }
}

TEST(Faults, FaultAfterQuiescenceIsANoop) {
  Rng rng(5);
  const Graph g = gen::random_regular(64, 6, rng);
  congest::FaultPlan plan;
  plan.drop_edge(1000, 0);  // far past any BFS flood's quiescence
  plan.crash_node(1000, 1);
  congest::RunResult faulted;
  const auto got = bfs_under_faults(g, 0, plan, &faulted);
  EXPECT_EQ(got, bfs_distances(g, 0));
  EXPECT_EQ(faulted.fault_dropped, 0u);
  EXPECT_EQ(faulted.fault_corrupted, 0u);
}

TEST(Faults, CountersAccountDropsAndCorruptions) {
  Rng rng(6);
  const Graph g = gen::random_regular(64, 6, rng);
  {
    congest::FaultPlan plan;
    plan.drop_edge(0, 0);
    congest::RunResult res;
    bfs_under_faults(g, 0, plan, &res);
    EXPECT_GT(res.fault_dropped, 0u);
    EXPECT_EQ(res.fault_corrupted, 0u);
  }
  {
    // Corrupt an edge that provably carries a message: the root announces
    // on all its arcs in round 0, so any root-incident edge works. BFS
    // still quiesces (a corrupted distance only relabels); the counter is
    // what's under test.
    EdgeId at_root = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
      if (g.edge_u(e) == 0 || g.edge_v(e) == 0) {
        at_root = e;
        break;
      }
    congest::FaultPlan plan;
    plan.corrupt_edge(0, at_root);
    congest::RunResult res;
    algo::DistributedBfs alg(g, 0);
    congest::Network net(g);
    congest::RunOptions ro;
    ro.faults = &plan;
    res = net.run(alg, ro);
    EXPECT_TRUE(res.finished);
    EXPECT_GT(res.fault_corrupted, 0u);
    EXPECT_EQ(res.fault_dropped, 0u);
  }
}

TEST(Faults, OutOfRangeIdsThrowBeforeTheRunStarts) {
  const Graph g = gen::cycle(8);
  algo::DistributedBfs alg(g, 0);
  congest::Network net(g);
  using Breaker = void (*)(congest::FaultPlan&);
  for (const Breaker bad : {
           Breaker{[](congest::FaultPlan& p) { p.crash_node(0, 100); }},
           Breaker{[](congest::FaultPlan& p) { p.drop_edge(0, 100); }},
           Breaker{[](congest::FaultPlan& p) { p.drop_arc(0, 100); }},
           Breaker{[](congest::FaultPlan& p) { p.corrupt_edge(0, 100); }},
       }) {
    congest::FaultPlan plan;
    bad(plan);
    congest::RunOptions ro;
    ro.faults = &plan;
    EXPECT_THROW(net.run(alg, ro), std::invalid_argument);
  }
}

// --------------------------------------------- resilient engine drive --

TEST(ResilientEngine, EngineDriveMatchesAnalyticModel) {
  Rng rng(7);
  const Graph g = gen::random_regular(96, 24, rng);
  core::DecompositionOptions dopts;
  dopts.C = 1.5;
  const auto packing = core::build_low_congestion_packing(g, 24, 5, dopts);
  ASSERT_GE(packing.tree_count(), 3u);

  using apps::AdversaryKind;
  for (const AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kRandom,
        AdversaryKind::kTreeFocused}) {
    for (const std::uint32_t f : {0u, 4u, 12u}) {
      for (const std::uint64_t seed : {1ull, 9ull}) {
        SCOPED_TRACE(std::string("kind=") +
                     std::to_string(static_cast<int>(kind)) +
                     " f=" + std::to_string(f) +
                     " seed=" + std::to_string(seed));
        apps::ResilientOptions opts;
        opts.adversary = kind;
        opts.f = f;
        opts.seed = seed;
        opts.drive = apps::ResilientDrive::kAnalytic;
        const auto analytic = apps::resilient_broadcast(g, packing, 12, opts);
        opts.drive = apps::ResilientDrive::kEngine;
        const auto engine = apps::resilient_broadcast(g, packing, 12, opts);
        EXPECT_EQ(engine.trees, analytic.trees);
        EXPECT_EQ(engine.k, analytic.k);
        EXPECT_EQ(engine.rounds, analytic.rounds);
        EXPECT_EQ(engine.corrupted_copies, analytic.corrupted_copies);
        EXPECT_EQ(engine.decode_failures, analytic.decode_failures);
        EXPECT_EQ(engine.failure_rate, analytic.failure_rate);
      }
    }
  }
}

// ------------------------------------------------ composite fault plans --

TEST(CompositeFaults, GlobalPlanOnCompositeThrows) {
  const Graph g = gen::cycle(6);
  const Subgraph s1 = make_subgraph(g, std::vector<EdgeId>{0, 1, 2});
  const Subgraph s2 = make_subgraph(g, std::vector<EdgeId>{3, 4, 5});
  algo::DistributedBfs a1(s1.graph, 0), a2(s2.graph, 0);
  std::vector<congest::EdgeDisjointInstance> work{{&s1, &a1}, {&s2, &a2}};
  congest::FaultPlan global;
  global.drop_edge(0, 0);
  congest::RunOptions ro;
  ro.faults = &global;
  EXPECT_THROW(congest::run_edge_disjoint(g, work, ro), std::logic_error);
  EXPECT_THROW(congest::run_edge_disjoint(g, work, ro,
                                          congest::CompositeMode::kSequential),
               std::logic_error);
}

TEST(Faults, BatchSsspHonoursTheScenarioPlan) {
  // batch-sssp is ONE engine execution, so ScenarioConfig::faults reaches
  // it like bfs: a round-0 drop of an edge at a source equals removing it.
  Rng rng(7);
  const Graph g = gen::random_regular(64, 6, rng);
  const scenario::ScenarioRunner runner;
  for (const NodeId s : {NodeId{0}, NodeId{1}, NodeId{2}}) {
    const EdgeId e = g.arc_edge(g.arc_begin(s));
    SCOPED_TRACE(e);
    congest::FaultPlan plan;
    plan.drop_edge(0, e);
    scenario::ScenarioPayload payload;
    scenario::ScenarioConfig cfg;
    cfg.sources = 3;
    cfg.faults = &plan;
    cfg.payload = &payload;
    const auto res = runner.run("batch-sssp", g, "rr", cfg);  // unit weights
    EXPECT_TRUE(res.finished);
    const WeightedGraph cut(without_edge(g, e),
                            std::vector<Weight>(g.edge_count() - 1, 1));
    ASSERT_EQ(payload.distances.size(), 3u);
    for (NodeId q = 0; q < 3; ++q)
      EXPECT_EQ(payload.distances[q], dijkstra(cut, q));
    // The drop mattered: the edge was the only 1-hop path between its ends.
    EXPECT_NE(payload.distances[s][g.arc_head(g.arc_begin(s))], Weight{1});
  }
}

TEST(Faults, MultiPhaseAppsRejectPlansInsteadOfIgnoringThem) {
  // mst and weighted-apsp run many engine executions with no single fault
  // clock: a non-empty plan is a typed error before any engine run.
  congest::FaultPlan plan;
  plan.drop_edge(0, 0);
  scenario::ScenarioConfig cfg;
  cfg.faults = &plan;
  const scenario::ScenarioRunner runner;
  const char* spec = "random_regular:n=64,d=4,seed=3,weights=1..50";
  for (const char* algo : {"mst", "weighted-apsp"}) {
    SCOPED_TRACE(algo);
    EXPECT_THROW(runner.run_spec(algo, spec, cfg), std::invalid_argument);
  }
  // An empty plan is no plan.
  const congest::FaultPlan none;
  cfg.faults = &none;
  EXPECT_TRUE(runner.run_spec("mst", spec, cfg).finished);
}

// -------------------------------------------------------- wakeup fuzz --

// Property: for ANY churn sequence, the event-driven parallel repair's
// labels equal the dense serial reference computed from scratch. Failures
// print the seed; reproduce with
//   DYNAMIC_FUZZ_SEEDS=<seed> ctest -R Fuzz
std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds{2, 3, 5, 8, 13};
  if (const char* env = std::getenv("DYNAMIC_FUZZ_SEEDS")) {
    seeds.clear();
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok =
          s.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return seeds;
}

TEST(Fuzz, RandomChurnKeepsSparseParallelEqualToDenseSerial) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("DYNAMIC_FUZZ_SEEDS=" + std::to_string(seed));
    Rng rng(mix64(seed, 0x66757a7a));
    const NodeId n = NodeId{64} << rng.below(3);  // 64 / 128 / 256
    const double p = 0.01 + 0.09 * (rng.below(10) / 10.0);
    const std::string spec = "rmat:n=" + std::to_string(n) +
                             ",deg=6,seed=" + std::to_string(seed) +
                             ",weights=1..30,churn=" + std::to_string(p) +
                             ",updates=4xmix";
    SCOPED_TRACE(spec);
    DynamicScenario sc = DynamicScenario::parse(spec);

    IncrementalOptions sparse;  // event-driven, global pool, parallel
    ThreadPool serial(1);
    IncrementalOptions dense;
    dense.force_dense = true;
    dense.pool = &serial;

    DynamicBfs bfs(0);
    DynamicSssp sssp(0);
    bfs.recompute(sc.graph(), sparse);
    sssp.recompute(sc.weighted(), sparse);
    for (std::uint64_t b = 0; b < sc.batches_declared(); ++b) {
      SCOPED_TRACE("batch=" + std::to_string(b));
      const UpdateBatch batch = sc.advance();
      bfs.apply_batch(sc.graph(), batch, sparse);
      sssp.apply_batch(sc.weighted(), batch, sparse);

      DynamicBfs ref_bfs(0);
      ref_bfs.recompute(sc.graph(), dense);
      DynamicSssp ref_sssp(0);
      ref_sssp.recompute(sc.weighted(), dense);
      ASSERT_EQ(bfs.distances(), ref_bfs.distances());
      ASSERT_EQ(sssp.distances(), ref_sssp.distances());
      ASSERT_EQ(bfs.distances(), bfs_distances(sc.graph(), 0));
      ASSERT_EQ(sssp.distances(), dijkstra(sc.weighted(), 0));
    }
  }
}

}  // namespace
}  // namespace fc::dynamic
