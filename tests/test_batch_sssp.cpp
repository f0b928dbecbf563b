// Differential contract of the batch k-source SSSP (apps/batch_sssp): on
// every registry family, ONE pipelined execution answers k queries with
// distance vectors bit-identical to k independent apps::distributed_sssp
// runs (which are themselves Dijkstra-identical) — and the whole batched
// report is bit-identical whether the workload was built and run at 1, 2,
// or 8 threads. The pipelining claim is also checked: the batched run takes
// far fewer rounds than the k independent executions combined.

#include "apps/batch_sssp.hpp"

#include <gtest/gtest.h>

#include "apps/sssp.hpp"
#include "graph/properties.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace fc::apps {
namespace {

/// The differential spec grid: the MST/SSSP families plus `sources=k` —
/// weighted, unit-weight, disconnected, and `largest_cc=1` workloads.
struct BatchSpec {
  const char* spec;
  std::uint64_t k;
};
const BatchSpec kSpecs[] = {
    {"random_regular:n=96,d=6,seed=3,weights=1..100", 8},
    {"harary:n=64,k=5,weights=1..50", 5},
    {"watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40", 12},
    {"dumbbell:s=24,bridges=3,weights=1..9", 6},
    {"rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100", 8},
    {"torus:rows=8,cols=9", 7},  // unit weights: SSSP degenerates to BFS
};

WeightedGraph rebuild_with_pool(const WeightedGraph& g, ThreadPool& pool) {
  const auto edges = g.graph().edge_list();
  return WeightedGraph(
      Graph::from_edges(g.graph().node_count(), edges, pool),
      std::vector<Weight>(g.weights().begin(), g.weights().end()));
}

TEST(BatchSssp, MatchesIndependentRunsAcrossFamiliesAndThreadCounts) {
  for (const auto& [spec, k] : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    const auto sources = default_sources(g.graph(), k);
    const BatchSsspReport baseline = batch_sssp(g, sources);
    ASSERT_TRUE(baseline.finished);
    ASSERT_EQ(baseline.dist.size(), k);
    for (std::uint32_t s = 0; s < k; ++s) {
      SCOPED_TRACE(s);
      // The acceptance bar: per-query distances bit-identical to an
      // independent distributed run (and to serial Dijkstra).
      const auto single = distributed_sssp(g, sources[s]);
      EXPECT_EQ(baseline.dist[s], single.dist);
      EXPECT_EQ(baseline.dist[s], dijkstra(g, sources[s]));
      EXPECT_EQ(baseline.reached[s], single.reached);
      EXPECT_EQ(baseline.max_dist[s], single.max_dist);
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const WeightedGraph gt = rebuild_with_pool(g, pool);
      const BatchSsspReport rep = batch_sssp(gt, sources);
      // Bit-identical per thread count: distances AND engine costs.
      EXPECT_EQ(rep.dist, baseline.dist);
      EXPECT_EQ(rep.rounds, baseline.rounds);
      EXPECT_EQ(rep.messages, baseline.messages);
      EXPECT_EQ(rep.arc_sends, baseline.arc_sends);
    }
  }
}

TEST(BatchSssp, PipeliningBeatsIndependentRounds) {
  // Deep bottleneck graph, many sources: k independent runs pay ~k * depth
  // rounds; the batch pays ~depth + k. Assert a conservative version.
  const WeightedGraph g = scenario::build_weighted_graph(
      "thick_path:groups=64,width=4,weights=1..100");
  const std::uint64_t k = 16;
  const auto sources = default_sources(g.graph(), k);
  const auto batch = batch_sssp(g, sources);
  ASSERT_TRUE(batch.finished);
  std::uint64_t independent_rounds = 0;
  for (const NodeId s : sources)
    independent_rounds += distributed_sssp(g, s).rounds;
  EXPECT_LT(batch.rounds * 2, independent_rounds)
      << "batch=" << batch.rounds << " independent=" << independent_rounds;
}

TEST(BatchSssp, ParentArcsAreShortestPathConsistent) {
  const WeightedGraph g = scenario::build_weighted_graph(
      "clique_path:groups=3,width=5,overlap=2,weights=1..20");
  const std::uint64_t k = 5;
  const auto sources = default_sources(g.graph(), k);
  BatchBellmanFord alg(g, sources);
  congest::Network net(g.graph());
  ASSERT_TRUE(net.run(alg).finished);
  for (std::uint32_t s = 0; s < k; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(alg.parent_arc(s, sources[s]), kInvalidArc);
    for (NodeId v = 0; v < g.graph().node_count(); ++v) {
      const ArcId pa = alg.parent_arc(s, v);
      if (pa == kInvalidArc) {
        EXPECT_TRUE(v == sources[s] || alg.dist(s, v) == kInfWeight);
        continue;
      }
      const NodeId p = g.graph().arc_head(pa);
      EXPECT_EQ(alg.dist(s, v), alg.dist(s, p) + g.arc_weight(pa));
    }
  }
}

TEST(BatchSssp, DuplicateSourcesAnswerIndependently) {
  const WeightedGraph g =
      scenario::build_weighted_graph("cycle:n=24,weights=1..9");
  const auto rep = batch_sssp(g, {5, 5, 0});
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.dist[0], rep.dist[1]);
  EXPECT_EQ(rep.dist[0], dijkstra(g, 5));
  EXPECT_EQ(rep.dist[2], dijkstra(g, 0));
}

TEST(BatchSssp, DisconnectedQueriesCoverTheirOwnComponents) {
  const WeightedGraph g = scenario::build_weighted_graph(
      "rmat:n=64,deg=3,seed=11,weights=1..9");
  ASSERT_GT(component_count(g.graph()), 1u);
  const std::uint64_t k = 8;
  const auto rep = batch_sssp(g, default_sources(g.graph(), k));
  ASSERT_TRUE(rep.finished);
  for (std::uint32_t s = 0; s < k; ++s) {
    EXPECT_EQ(rep.dist[s], dijkstra(g, rep.sources[s]));
    EXPECT_LT(rep.reached[s], g.graph().node_count());
  }
}

TEST(BatchSssp, LargeGraphExercisesParallelRounds) {
  // n >= 512 crosses the engine's parallel-round threshold, so this run
  // (and the TSAN CI job re-running it) covers the concurrent handlers.
  const WeightedGraph g = scenario::build_weighted_graph(
      "random_regular:n=600,d=4,seed=9,weights=1..1000");
  const auto rep = batch_sssp(g, default_sources(g.graph(), 8));
  ASSERT_TRUE(rep.finished);
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(rep.dist[s], dijkstra(g, rep.sources[s]));
    EXPECT_EQ(rep.reached[s], 600u);
  }
}

TEST(BatchSssp, BadInputsThrow) {
  const WeightedGraph g = scenario::build_weighted_graph("cycle:n=8");
  EXPECT_THROW(batch_sssp(g, {}), std::invalid_argument);
  EXPECT_THROW(batch_sssp(g, {8}), std::invalid_argument);
  EXPECT_THROW(default_sources(g.graph(), 0), std::invalid_argument);
  EXPECT_THROW(default_sources(g.graph(), 9), std::invalid_argument);
  EXPECT_EQ(default_sources(g.graph(), 8).size(), 8u);
}

TEST(BatchSssp, RunnerReportsQueryRangeAndTakesSpecSources) {
  const scenario::ScenarioRunner runner;
  ASSERT_TRUE(runner.is_weighted("batch-sssp"));
  // sources= from the spec itself.
  const auto r = runner.run_spec("batch-sssp",
                                 "circulant:n=40,k=3,weights=1..100,sources=4");
  ASSERT_TRUE(r.finished);
  EXPECT_NE(r.note.find("k=4"), std::string::npos) << r.note;
  EXPECT_NE(r.note.find("reached=40..40"), std::string::npos) << r.note;
  // An explicit config value overrides the spec's.
  scenario::ScenarioConfig cfg;
  cfg.sources = 2;
  const auto r2 = runner.run_spec(
      "batch-sssp", "circulant:n=40,k=3,weights=1..100,sources=4", cfg);
  EXPECT_NE(r2.note.find("k=2"), std::string::npos) << r2.note;
}

}  // namespace
}  // namespace fc::apps
