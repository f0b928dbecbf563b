#include "algo/convergecast.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "algo/learn_parameters.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc::algo {
namespace {

SpanningTree tree_of(const Graph& g, NodeId root) {
  return run_bfs(g, root).tree;
}

TEST(Convergecast, SumOverPath) {
  const Graph g = gen::path(10);
  const auto t = tree_of(g, 0);
  std::vector<std::uint64_t> vals(10);
  std::iota(vals.begin(), vals.end(), 1);  // 1..10
  congest::Network net(g);
  Convergecast alg(g, t, AggregateOp::kSum, vals);
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_TRUE(alg.has_result(v));
    EXPECT_EQ(alg.result(v), 55u);
  }
}

TEST(Convergecast, MinAndMax) {
  Rng rng(4);
  const Graph g = gen::random_regular(50, 4, rng);
  const auto t = tree_of(g, 3);
  std::vector<std::uint64_t> vals(50);
  for (auto& v : vals) v = rng.below(1000) + 1;
  const std::uint64_t lo = *std::min_element(vals.begin(), vals.end());
  const std::uint64_t hi = *std::max_element(vals.begin(), vals.end());

  {
    congest::Network net(g);
    Convergecast alg(g, t, AggregateOp::kMin, vals);
    net.run(alg);
    EXPECT_EQ(alg.result(0), lo);
  }
  {
    congest::Network net(g);
    Convergecast alg(g, t, AggregateOp::kMax, vals);
    net.run(alg);
    EXPECT_EQ(alg.result(49), hi);
  }
}

TEST(Convergecast, RoundsAtMostTwiceDepthPlusSlack) {
  const Graph g = gen::grid(8, 8);
  const auto t = tree_of(g, 0);
  congest::Network net(g);
  Convergecast alg(g, t, AggregateOp::kSum,
                   std::vector<std::uint64_t>(64, 1));
  const auto res = net.run(alg);
  EXPECT_LE(res.rounds, 2ull * t.depth + 4);
}

TEST(Convergecast, SingleNodeTree) {
  const Graph g = Graph::from_edges(1, std::vector<std::pair<NodeId, NodeId>>{});
  const auto t = tree_of(g, 0);
  congest::Network net(g);
  Convergecast alg(g, t, AggregateOp::kSum, {42});
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  EXPECT_EQ(alg.result(0), 42u);
}

TEST(Convergecast, RejectsNonSpanningTree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  SpanningTree t = tree_of(g, 0);
  t.covered = 3;  // simulate a tree that missed a node
  EXPECT_THROW(Convergecast(g, t, AggregateOp::kSum,
                            std::vector<std::uint64_t>(4, 0)),
               std::invalid_argument);
}

TEST(Convergecast, RejectsWrongValueCount) {
  const Graph g = gen::path(4);
  const auto t = tree_of(g, 0);
  EXPECT_THROW(
      Convergecast(g, t, AggregateOp::kSum, std::vector<std::uint64_t>(3, 0)),
      std::invalid_argument);
}

TEST(AggregateOverTree, WrapperReturnsRootValue) {
  const Graph g = gen::cycle(12);
  const auto t = tree_of(g, 5);
  std::vector<std::uint64_t> vals(12, 2);
  const auto out = aggregate_over_tree(g, t, AggregateOp::kSum, vals);
  EXPECT_EQ(out.value, 24u);
  EXPECT_GT(out.rounds, 0u);
}

/// Mark both arcs of every listed edge as forest arcs.
std::vector<std::uint8_t> tree_flags(const Graph& g,
                                     const std::vector<EdgeId>& edges) {
  std::vector<std::uint8_t> flags(g.arc_count(), 0);
  for (const EdgeId e : edges) {
    const auto [a, b] = g.edge_arcs(e);
    flags[a] = flags[b] = 1;
  }
  return flags;
}

congest::RunResult run_echo(const Graph& g, ForestEcho& alg) {
  congest::Network net(g);
  return net.run(alg);
}

TEST(ForestEcho, EveryNodeLearnsTheMinOverASpanningTree) {
  Rng rng(9);
  const Graph g = gen::random_regular(60, 4, rng);
  const auto t = tree_of(g, 0);
  std::vector<EchoValue> vals(60);
  for (NodeId v = 0; v < 60; ++v) vals[v] = {rng.below(1000) + 1, v};
  const EchoValue lo = *std::min_element(vals.begin(), vals.end());
  const auto flags = tree_flags(g, t.tree_edges(g));
  ForestEcho alg(g, flags, vals);
  const auto res = run_echo(g, alg);
  EXPECT_TRUE(res.finished);
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_TRUE(alg.decided(v));
    EXPECT_EQ(alg.result(v), lo);
  }
  // The defining economy: at most two messages per tree edge.
  EXPECT_LE(res.messages, 2ull * t.tree_edges(g).size());
}

TEST(ForestEcho, PerComponentMinimaOnAForest) {
  // Two path components 0-1-2 and 3-4; node 5 isolated in the forest.
  const Graph g =
      Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  std::vector<EchoValue> vals = {{7, 0}, {3, 1}, {9, 2},
                                 {4, 3}, {6, 4}, {1, 5}};
  const auto flags = tree_flags(g, {0, 1, 2});
  ForestEcho alg(g, flags, vals);
  EXPECT_TRUE(run_echo(g, alg).finished);
  const EchoValue a{3, 1}, b{4, 3};
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(alg.result(v), a);
  EXPECT_EQ(alg.result(3), b);
  EXPECT_EQ(alg.result(4), b);
  // Node 5's edge {4,5} is not a forest arc: it keeps its own value.
  EXPECT_EQ(alg.result(5), (EchoValue{1, 5}));
}

TEST(ForestEcho, InactiveComponentsStaySilent) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  std::vector<EchoValue> vals = {{5, 0}, {2, 1}, {8, 2}, {4, 3}};
  const std::vector<std::uint8_t> inactive = {0, 0, 1, 1};
  const auto flags = tree_flags(g, {0, 1});
  ForestEcho alg(g, flags, vals, &inactive);
  const auto res = run_echo(g, alg);
  EXPECT_TRUE(res.finished);
  EXPECT_EQ(alg.result(0), (EchoValue{2, 1}));
  EXPECT_EQ(alg.result(1), (EchoValue{2, 1}));
  // Inactive nodes decide on their OWN value without exchanging anything.
  EXPECT_EQ(alg.result(2), (EchoValue{8, 2}));
  EXPECT_EQ(alg.result(3), (EchoValue{4, 3}));
  EXPECT_LE(res.messages, 2u);  // only the active pair talked
}

TEST(ForestEcho, RoundsTrackComponentDiameterWithoutAQuiescenceTail) {
  const Graph g = gen::path(64);
  std::vector<EdgeId> all_edges(g.edge_count());
  std::iota(all_edges.begin(), all_edges.end(), 0);
  std::vector<EchoValue> vals(64);
  for (NodeId v = 0; v < 64; ++v) vals[v] = {100 + v, v};
  const auto flags = tree_flags(g, all_edges);
  ForestEcho alg(g, flags, vals);
  const auto res = run_echo(g, alg);
  EXPECT_TRUE(res.finished);
  // Saturation meets in the middle (~n/2), resolution returns (~n/2):
  // about one diameter total, and no idle tail beyond the final round.
  EXPECT_LE(res.rounds, 64u + 3);
  EXPECT_EQ(alg.result(63), (EchoValue{100, 0}));
}

TEST(ForestEcho, RejectsMismatchedInputs) {
  const Graph g = gen::path(4);
  EXPECT_THROW(ForestEcho(g, std::vector<std::uint8_t>(g.arc_count(), 0),
                          std::vector<EchoValue>(3)),
               std::invalid_argument);
  EXPECT_THROW(ForestEcho(g, std::vector<std::uint8_t>(2, 0),
                          std::vector<EchoValue>(4)),
               std::invalid_argument);
  const std::vector<std::uint8_t> short_mask(2, 0);
  EXPECT_THROW(ForestEcho(g, std::vector<std::uint8_t>(g.arc_count(), 0),
                          std::vector<EchoValue>(4), &short_mask),
               std::invalid_argument);
}

TEST(LearnParameters, MatchesDirectComputation) {
  Rng rng(6);
  const Graph g = gen::random_regular(60, 6, rng);
  const auto learned = learn_parameters(g, 0);
  EXPECT_EQ(learned.min_degree, 6u);
  EXPECT_EQ(learned.node_count, 60u);
  EXPECT_GT(learned.rounds, 0u);
}

TEST(LearnParameters, IrregularGraph) {
  const Graph g = gen::dumbbell(6, 2);
  const auto learned = learn_parameters(g, 3);
  EXPECT_EQ(learned.min_degree, 5u);  // clique node of degree 5
  EXPECT_EQ(learned.node_count, 12u);
}

TEST(LearnParameters, CancelledBfsEndsThePipelineInsteadOfThrowing) {
  // A BFS cut before round 0 reaches only its root. The convergecasts must
  // not start on that partial tree (Convergecast rejects a non-spanning
  // tree); the pipeline reports the cut instead.
  const Graph g = gen::cycle(16);
  congest::CancelToken token;
  token.cancel();
  congest::RunOptions opts;
  opts.cancel = &token;
  LearnedParameters learned;
  EXPECT_NO_THROW(learned = learn_parameters(g, 0, opts));
  EXPECT_TRUE(learned.cancelled);
  EXPECT_EQ(learned.rounds, 0u);

  // A live token changes nothing.
  congest::CancelToken live;
  opts.cancel = &live;
  const auto uncut = learn_parameters(g, 0, opts);
  const auto plain = learn_parameters(g, 0);
  EXPECT_FALSE(uncut.cancelled);
  EXPECT_EQ(uncut.min_degree, 2u);
  EXPECT_EQ(uncut.node_count, 16u);
  EXPECT_EQ(uncut.rounds, plain.rounds);
}

TEST(LearnParameters, FaultPlansAreRejectedBeforeAnyRun) {
  // The BFS and the two aggregates are three engine runs, each starting at
  // round 0, so a plan has no single clock to run on. It is rejected up
  // front: a round-0 crash must not surface as the Convergecast "tree does
  // not span" error, and a late fault must not be silently ignored.
  const Graph g = gen::cycle(16);
  const auto expect_rejected = [&g](const congest::FaultPlan& plan) {
    congest::RunOptions opts;
    opts.faults = &plan;
    try {
      learn_parameters(g, 0, opts);
      ADD_FAILURE() << "plan accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fault plans"), std::string::npos)
          << e.what();
    }
  };
  congest::FaultPlan crash;
  crash.crash_node(0, 5);
  expect_rejected(crash);
  congest::FaultPlan late;
  late.drop_edge(1'000'000, 0);
  expect_rejected(late);

  const congest::FaultPlan none;  // an empty plan is no plan
  congest::RunOptions opts;
  opts.faults = &none;
  const auto learned = learn_parameters(g, 0, opts);
  EXPECT_EQ(learned.min_degree, 2u);
  EXPECT_EQ(learned.node_count, 16u);
}

TEST(NetworkOverloads, MatchTheGraphFormsOnOneEngine) {
  // run_bfs, aggregate_over_tree and learn_parameters on a caller's engine
  // equal their Graph forms, which build one per call, and start 1, 1 and 3
  // runs on it.
  Rng rng(7);
  const Graph g = gen::random_regular(80, 6, rng);
  congest::Network net(g);

  const BfsOutcome bfs = run_bfs(net, 5);
  EXPECT_EQ(net.runs_started(), 1u);
  const BfsOutcome bfs_want = run_bfs(g, 5);
  EXPECT_EQ(bfs.cost.rounds, bfs_want.cost.rounds);
  EXPECT_EQ(bfs.cost.messages, bfs_want.cost.messages);
  EXPECT_EQ(bfs.cost.arc_sends, bfs_want.cost.arc_sends);
  EXPECT_EQ(bfs.tree.parent_arc, bfs_want.tree.parent_arc);
  EXPECT_EQ(bfs.tree.depth_of, bfs_want.tree.depth_of);

  std::vector<std::uint64_t> vals(g.node_count());
  for (auto& v : vals) v = rng.below(1000);
  const auto sum = aggregate_over_tree(net, bfs.tree, AggregateOp::kSum, vals);
  EXPECT_EQ(net.runs_started(), 2u);
  const auto sum_want =
      aggregate_over_tree(g, bfs.tree, AggregateOp::kSum, vals);
  EXPECT_EQ(sum.value, sum_want.value);
  EXPECT_EQ(sum.rounds, sum_want.rounds);

  const LearnedParameters learned = learn_parameters(net, 5);
  EXPECT_EQ(net.runs_started(), 5u);
  const LearnedParameters learned_want = learn_parameters(g, 5);
  EXPECT_EQ(learned.min_degree, learned_want.min_degree);
  EXPECT_EQ(learned.node_count, learned_want.node_count);
  EXPECT_EQ(learned.rounds, learned_want.rounds);
  EXPECT_EQ(learned.min_degree, 6u);
  EXPECT_EQ(learned.node_count, 80u);
}

}  // namespace
}  // namespace fc::algo
