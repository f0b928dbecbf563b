// Differential contract of the distributed Borůvka MST (apps/mst): on every
// registry family the edge set matches the serial Kruskal reference EXACTLY
// (unique minimum under the (weight, EdgeId) key order), and the whole
// report — edges, rounds, messages, congestion — is bit-identical whether
// the workload was built and run at 1, 2, or 8 threads. A golden table pins
// the report's counts, so the message cost of the convergecast merges and
// the silencing of finished fragments cannot drift unnoticed.

#include "apps/mst.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/properties.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace fc::apps {
namespace {

/// The differential spec grid: ≥4 families, weighted via `weights=lo..hi`
/// (hash-derived) plus one unit-weight workload, one disconnected family
/// (forest case) and one `largest_cc=1` restriction.
const char* const kSpecs[] = {
    "random_regular:n=96,d=6,seed=3,weights=1..100",
    "harary:n=64,k=5,weights=1..50",
    "watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40",
    "dumbbell:s=24,bridges=3,weights=1..9",
    "rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100",
    "thick_cycle:groups=8,width=4",  // unit weights: ties everywhere
};

WeightedGraph rebuild_with_pool(const WeightedGraph& g, ThreadPool& pool) {
  const auto edges = g.graph().edge_list();
  return WeightedGraph(
      Graph::from_edges(g.graph().node_count(), edges, pool),
      std::vector<Weight>(g.weights().begin(), g.weights().end()));
}

TEST(DistributedMst, MatchesKruskalAcrossFamiliesAndThreadCounts) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    const auto ref = kruskal_msf(g);
    const MstReport baseline = distributed_mst(g);
    EXPECT_TRUE(baseline.finished);
    EXPECT_EQ(baseline.tree_edges, ref);
    EXPECT_EQ(baseline.total_weight, edge_set_weight(g, ref));
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const WeightedGraph gt = rebuild_with_pool(g, pool);
      const MstReport rep = distributed_mst(gt);
      // Bit-identical per thread count: same edges AND same cost metrics.
      EXPECT_EQ(rep.tree_edges, baseline.tree_edges);
      EXPECT_EQ(rep.total_weight, baseline.total_weight);
      EXPECT_EQ(rep.phases, baseline.phases);
      EXPECT_EQ(rep.rounds, baseline.rounds);
      EXPECT_EQ(rep.messages, baseline.messages);
      EXPECT_EQ(rep.arc_sends, baseline.arc_sends);
      EXPECT_EQ(rep.fragment, baseline.fragment);
    }
  }
}

/// Golden reports: the counts of the default convergecast MST on the
/// differential specs, a deep bottleneck family (the most merge traffic)
/// and a disconnected graph whose small components finish early and go
/// silent. Pinned from the implementation that still carried the flood
/// merge mode beside the convergecast; every engine pool reproduces them.
struct MstGoldenCase {
  const char* spec;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t announce_messages;
  std::uint64_t merge_messages;
  std::uint32_t phases;
  Weight total_weight;
  std::uint64_t max_edge_congestion;
};

const MstGoldenCase kMstGolden[] = {
    {"random_regular:n=96,d=6,seed=3,weights=1..100", 86, 3265, 2304, 961, 3,
     1410, 20},
    {"harary:n=64,k=5,weights=1..50", 87, 1919, 1280, 639, 3, 800, 20},
    {"watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40", 78, 3256, 2304,
     952, 3, 749, 20},
    {"dumbbell:s=24,bridges=3,weights=1..9", 78, 4948, 4440, 508, 3, 52, 20},
    {"rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100", 74, 3301, 2328,
     973, 3, 2481, 20},
    {"thick_cycle:groups=8,width=4", 24, 414, 320, 94, 1, 31, 8},
    {"thick_path:groups=32,width=8,weights=1..100", 352, 18326, 13728, 4598,
     5, 3315, 32},
    {"rmat:n=64,deg=3,seed=11,weights=1..9", 53, 1021, 604, 417, 3, 168, 20},
};

TEST(MstGolden, CountsAtPools1_2_8) {
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    MstOptions opts;
    opts.pool = &pool;
    for (const MstGoldenCase& c : kMstGolden) {
      SCOPED_TRACE(std::string(c.spec) + " pool " + std::to_string(threads));
      const WeightedGraph g = scenario::build_weighted_graph(c.spec);
      const MstReport rep = distributed_mst(g, opts);
      ASSERT_TRUE(rep.finished);
      EXPECT_EQ(rep.tree_edges, kruskal_msf(g));
      EXPECT_EQ(rep.rounds, c.rounds);
      EXPECT_EQ(rep.messages, c.messages);
      EXPECT_EQ(rep.announce_messages, c.announce_messages);
      EXPECT_EQ(rep.merge_messages, c.merge_messages);
      EXPECT_EQ(rep.messages, rep.announce_messages + rep.merge_messages);
      EXPECT_EQ(rep.phases, c.phases);
      EXPECT_EQ(rep.total_weight, c.total_weight);
      EXPECT_EQ(rep.max_edge_congestion(g.graph()), c.max_edge_congestion);
    }
  }
}

TEST(DistributedMst, LargeGraphExercisesParallelRounds) {
  // n >= 512 crosses the engine's parallel-round threshold, so this run
  // (and the TSAN CI job re-running it) covers the concurrent handlers.
  const WeightedGraph g = scenario::build_weighted_graph(
      "random_regular:n=600,d=4,seed=9,weights=1..1000");
  const auto rep = distributed_mst(g);
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.tree_edges, kruskal_msf(g));
  EXPECT_EQ(rep.tree_edges.size(), 599u);
  EXPECT_LE(rep.phases,
            static_cast<std::uint32_t>(std::ceil(std::log2(600.0))) + 1);
}

TEST(DistributedMst, SpanningTreeOnConnectedGraph) {
  const WeightedGraph g = scenario::build_weighted_graph(
      "hypercube:dim=6,weights=1..100");
  const auto rep = distributed_mst(g);
  ASSERT_TRUE(rep.finished);
  EXPECT_TRUE(is_spanning_tree(g.graph(), rep.tree_edges));
  // Every node ends in fragment 0 (the minimum id of the one component).
  for (const NodeId f : rep.fragment) EXPECT_EQ(f, 0u);
}

TEST(DistributedMst, ForestOnDisconnectedGraph) {
  // rmat:n=64 without largest_cc is typically disconnected: the result is
  // a spanning forest, one tree per component, still Kruskal-identical.
  const WeightedGraph g = scenario::build_weighted_graph(
      "rmat:n=64,deg=3,seed=11,weights=1..9");
  const auto comp = component_count(g.graph());
  ASSERT_GT(comp, 1u) << "seed no longer produces a disconnected graph";
  const auto rep = distributed_mst(g);
  ASSERT_TRUE(rep.finished);
  EXPECT_EQ(rep.tree_edges, kruskal_msf(g));
  EXPECT_EQ(rep.tree_edges.size(), g.graph().node_count() - comp);
  // Fragment ids name each component by its minimum node id.
  const auto label = components(g.graph());
  for (NodeId v = 0; v < g.graph().node_count(); ++v)
    EXPECT_EQ(label[rep.fragment[v]], label[v]);
}

TEST(DistributedMst, TrivialGraphs) {
  const auto empty = distributed_mst(WeightedGraph(Graph(), {}));
  EXPECT_TRUE(empty.finished);
  EXPECT_TRUE(empty.tree_edges.empty());
  const auto one = distributed_mst(
      WeightedGraph(Graph::from_edges(1, std::vector<std::pair<NodeId, NodeId>>{}),
                    {}));
  EXPECT_TRUE(one.finished);
  EXPECT_TRUE(one.tree_edges.empty());
  EXPECT_EQ(one.fragment, std::vector<NodeId>{0});
  const auto pair = distributed_mst(WeightedGraph(
      Graph::from_edges(2, std::vector<std::pair<NodeId, NodeId>>{{0, 1}}),
      {7}));
  EXPECT_TRUE(pair.finished);
  EXPECT_EQ(pair.tree_edges, std::vector<EdgeId>{0});
  EXPECT_EQ(pair.total_weight, 7);
}

TEST(DistributedMst, RunnerReportsWeightAndRestrictsToRootComponent) {
  const scenario::ScenarioRunner runner;
  ASSERT_TRUE(runner.is_weighted("mst"));
  const std::string spec = "rmat:n=64,deg=3,seed=11,weights=1..9";
  const auto r = runner.run_spec("mst", spec);
  EXPECT_TRUE(r.finished);
  EXPECT_NE(r.note.find("mst_weight="), std::string::npos);
  EXPECT_NE(r.note.find("cc="), std::string::npos);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GE(r.max_edge_congestion, r.max_arc_congestion);
}

TEST(DistributedMst, RunnerWeightMatchesKruskalOnConnectedSpec) {
  const scenario::ScenarioRunner runner;
  const std::string spec = "circulant:n=40,k=3,weights=1..100";
  const auto r = runner.run_spec("mst", spec);
  ASSERT_TRUE(r.finished);
  const WeightedGraph g = scenario::build_weighted_graph(spec);
  const Weight ref = edge_set_weight(g, kruskal_msf(g));
  EXPECT_NE(r.note.find("mst_weight=" + std::to_string(ref)),
            std::string::npos)
      << r.note;
  EXPECT_NE(r.note.find("edges=39"), std::string::npos) << r.note;
}

}  // namespace
}  // namespace fc::apps
