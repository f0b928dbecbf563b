// Differential contract of the distributed Bellman–Ford SSSP (apps/sssp):
// on every registry family the distance vector equals the serial Dijkstra
// reference entry for entry (kInfWeight for unreachable nodes), the parent
// arcs form consistent shortest paths, and the whole report is
// bit-identical whether the workload was built and run at 1, 2, or 8
// threads.

#include "apps/sssp.hpp"

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace fc::apps {
namespace {

const char* const kSpecs[] = {
    "random_regular:n=96,d=6,seed=3,weights=1..100",
    "harary:n=64,k=5,weights=1..50",
    "watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40",
    "dumbbell:s=24,bridges=3,weights=1..9",
    "rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100",
    "torus:rows=8,cols=9",  // unit weights: SSSP degenerates to BFS depths
};

WeightedGraph rebuild_with_pool(const WeightedGraph& g, ThreadPool& pool) {
  const auto edges = g.graph().edge_list();
  return WeightedGraph(
      Graph::from_edges(g.graph().node_count(), edges, pool),
      std::vector<Weight>(g.weights().begin(), g.weights().end()));
}

/// dist[v] = dist[parent] + w(parent edge) along every parent arc, and the
/// source is its own root.
void expect_consistent_parents(const WeightedGraph& g, const SsspReport& r,
                               NodeId source) {
  EXPECT_EQ(r.parent_arc[source], kInvalidArc);
  for (NodeId v = 0; v < g.graph().node_count(); ++v) {
    const ArcId pa = r.parent_arc[v];
    if (pa == kInvalidArc) {
      EXPECT_TRUE(v == source || r.dist[v] == kInfWeight);
      continue;
    }
    const NodeId p = g.graph().arc_head(pa);
    EXPECT_EQ(r.dist[v], r.dist[p] + g.arc_weight(pa));
  }
}

TEST(DistributedSssp, MatchesDijkstraAcrossFamiliesAndThreadCounts) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    const auto ref = dijkstra(g, 0);
    const SsspReport baseline = distributed_sssp(g, 0);
    EXPECT_TRUE(baseline.finished);
    EXPECT_EQ(baseline.dist, ref);
    expect_consistent_parents(g, baseline, 0);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const WeightedGraph gt = rebuild_with_pool(g, pool);
      const SsspReport rep = distributed_sssp(gt, 0);
      // Bit-identical per thread count: distances, parents, AND costs.
      EXPECT_EQ(rep.dist, baseline.dist);
      EXPECT_EQ(rep.parent_arc, baseline.parent_arc);
      EXPECT_EQ(rep.rounds, baseline.rounds);
      EXPECT_EQ(rep.messages, baseline.messages);
      EXPECT_EQ(rep.arc_sends, baseline.arc_sends);
    }
  }
}

TEST(DistributedSssp, MatchesDijkstraFromEverySourceOnSmallGraph) {
  const WeightedGraph g = scenario::build_weighted_graph(
      "clique_path:groups=3,width=5,overlap=2,weights=1..20");
  for (NodeId s = 0; s < g.graph().node_count(); ++s) {
    SCOPED_TRACE(s);
    const auto rep = distributed_sssp(g, s);
    ASSERT_TRUE(rep.finished);
    EXPECT_EQ(rep.dist, dijkstra(g, s));
    expect_consistent_parents(g, rep, s);
  }
}

TEST(DistributedSssp, LargeGraphExercisesParallelRounds) {
  // n >= 512 crosses the engine's parallel-round threshold, so this run
  // (and the TSAN CI job re-running it) covers the concurrent handlers.
  const WeightedGraph g = scenario::build_weighted_graph(
      "random_regular:n=600,d=4,seed=9,weights=1..1000");
  const auto rep = distributed_sssp(g, 0);
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.dist, dijkstra(g, 0));
  EXPECT_EQ(rep.reached, 600u);
}

TEST(DistributedSssp, UnreachableNodesStayAtInfinity) {
  const WeightedGraph g = scenario::build_weighted_graph(
      "rmat:n=64,deg=3,seed=11,weights=1..9");
  ASSERT_GT(component_count(g.graph()), 1u);
  const auto rep = distributed_sssp(g, 0);
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.dist, dijkstra(g, 0));
  EXPECT_LT(rep.reached, g.graph().node_count());
  const auto hops = bfs_distances(g.graph(), 0);
  for (NodeId v = 0; v < g.graph().node_count(); ++v)
    EXPECT_EQ(rep.dist[v] == kInfWeight, hops[v] == kUnreached);
}

TEST(DistributedSssp, RoundsTrackHopEccentricityNotWeights) {
  // Weighted path: distances grow with weights but rounds stay at the hop
  // eccentricity + the quiescence tail.
  const WeightedGraph g =
      scenario::build_weighted_graph("path:n=32,weights=100..4000");
  const auto rep = distributed_sssp(g, 0);
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.dist, dijkstra(g, 0));
  EXPECT_LE(rep.rounds, 31u + 4u);
  EXPECT_GE(rep.max_dist, 31 * 100);
}

TEST(DistributedSssp, BadSourceThrows) {
  const WeightedGraph g = scenario::build_weighted_graph("cycle:n=8");
  EXPECT_THROW(distributed_sssp(g, 8), std::invalid_argument);
}

TEST(DistributedSssp, RunnerReportsReachAndMaxDist) {
  const scenario::ScenarioRunner runner;
  ASSERT_TRUE(runner.is_weighted("sssp"));
  const std::string spec = "circulant:n=40,k=3,weights=1..100";
  const auto r = runner.run_spec("sssp", spec);
  ASSERT_TRUE(r.finished);
  const WeightedGraph g = scenario::build_weighted_graph(spec);
  const auto ref = dijkstra(g, 0);
  Weight max_dist = 0;
  for (const Weight d : ref) max_dist = std::max(max_dist, d);
  EXPECT_NE(r.note.find("reached=40"), std::string::npos) << r.note;
  EXPECT_NE(r.note.find("max_dist=" + std::to_string(max_dist)),
            std::string::npos)
      << r.note;
}

TEST(DistributedSssp, RunnerRestrictsToRootComponent) {
  const scenario::ScenarioRunner runner;
  const auto r = runner.run_spec("sssp", "rmat:n=64,deg=3,seed=11,weights=1..9");
  EXPECT_TRUE(r.finished);
  EXPECT_LT(r.nodes, 64u);
  EXPECT_NE(r.note.find("cc="), std::string::npos);
  // Inside the root component everything is reached.
  EXPECT_NE(r.note.find("reached=" + std::to_string(r.nodes)),
            std::string::npos)
      << r.note;
}

}  // namespace
}  // namespace fc::apps
