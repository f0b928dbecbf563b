// Differential contract of the distributed Borůvka MST (apps/mst): on every
// registry family the edge set matches the serial Kruskal reference EXACTLY
// (unique minimum under the (weight, EdgeId) key order), and the whole
// report — edges, rounds, messages, congestion — is bit-identical whether
// the workload was built and run at 1, 2, or 8 threads.

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

TEST(DistributedMst, FloodBaselineProducesTheIdenticalForest) {
  // Both merge engines must agree on everything semantic: edges, weight,
  // phase count, and final fragment labels. Only the cost profile differs.
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    MstOptions flood;
    flood.merge = MstMerge::kFlood;
    const auto cc = distributed_mst(g);
    const auto fl = distributed_mst(g, flood);
    ASSERT_TRUE(cc.finished);
    ASSERT_TRUE(fl.finished);
    EXPECT_EQ(cc.tree_edges, fl.tree_edges);
    EXPECT_EQ(cc.tree_edges, kruskal_msf(g));
    EXPECT_EQ(cc.total_weight, fl.total_weight);
    EXPECT_EQ(cc.phases, fl.phases);
    EXPECT_EQ(cc.fragment, fl.fragment);
    // The messages split into announce + merge buckets in both modes.
    EXPECT_EQ(cc.messages, cc.announce_messages + cc.merge_messages);
    EXPECT_EQ(fl.messages, fl.announce_messages + fl.merge_messages);
  }
}

TEST(DistributedMst, ConvergecastCutsMergeMessagesVersusFloodBaseline) {
  // The regression bar for the ROADMAP item "a convergecast up the fragment
  // tree would cut the per-phase message constant": on a deep bottleneck
  // family the echo must spend at most 70% of the flood's merge-bucket
  // messages (measured ~55%; the margin absorbs generator drift), and it
  // must never spend more on any differential spec.
  MstOptions flood;
  flood.merge = MstMerge::kFlood;
  {
    const WeightedGraph g = scenario::build_weighted_graph(
        "thick_path:groups=32,width=8,weights=1..100");
    const auto cc = distributed_mst(g);
    const auto fl = distributed_mst(g, flood);
    EXPECT_LE(cc.merge_messages * 10, fl.merge_messages * 7)
        << "echo=" << cc.merge_messages << " flood=" << fl.merge_messages;
    EXPECT_LT(cc.messages, fl.messages);
  }
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    const auto cc = distributed_mst(g);
    const auto fl = distributed_mst(g, flood);
    EXPECT_LE(cc.merge_messages, fl.merge_messages);
    EXPECT_LE(cc.announce_messages, fl.announce_messages);
  }
}

TEST(DistributedMst, FinishedFragmentsGoSilentOnDisconnectedGraphs) {
  // rmat:n=64 is disconnected: small components finish in early phases.
  // The convergecast mode silences them, so it also announces less.
  const WeightedGraph g = scenario::build_weighted_graph(
      "rmat:n=64,deg=3,seed=11,weights=1..9");
  ASSERT_GT(component_count(g.graph()), 1u);
  MstOptions flood;
  flood.merge = MstMerge::kFlood;
  const auto cc = distributed_mst(g);
  const auto fl = distributed_mst(g, flood);
  EXPECT_EQ(cc.tree_edges, fl.tree_edges);
  EXPECT_LT(cc.announce_messages, fl.announce_messages);
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
