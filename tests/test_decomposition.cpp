#include "core/decomposition.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.hpp"
#include "graph/mincut.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace fc::core {
namespace {

TEST(Decomposition, SinglePartIsTrivial) {
  const Graph g = gen::cycle(12);
  const auto dec = decompose(g, /*lambda=*/2);
  EXPECT_EQ(dec.parts, 1u);
  EXPECT_TRUE(dec.all_spanning());
  EXPECT_EQ(dec.trees[0].covered, g.node_count());
}

TEST(Decomposition, PartsAreEdgeDisjointAndComplete) {
  Rng rng(1);
  const Graph g = gen::random_regular(128, 32, rng);
  DecompositionOptions opts;
  opts.C = 1.0;
  const auto dec = decompose(g, 32, opts);
  EXPECT_GE(dec.parts, 2u);
  std::vector<int> owner(g.edge_count(), -1);
  std::size_t covered = 0;
  for (std::uint32_t i = 0; i < dec.parts; ++i) {
    for (EdgeId e : dec.partition.parts[i].parent_edge) {
      EXPECT_EQ(owner[e], -1);
      owner[e] = static_cast<int>(i);
      ++covered;
    }
  }
  EXPECT_EQ(covered, g.edge_count());
}

TEST(Decomposition, SpanningOnHighlyConnectedGraphs) {
  // Theorem 2: with λ' = λ/(C ln n) parts, each part spans w.h.p.
  Rng rng(2);
  const Graph g = gen::random_regular(256, 48, rng);
  const auto dec = decompose(g, 48);
  EXPECT_TRUE(dec.all_spanning()) << "parts=" << dec.parts;
  for (std::uint32_t i = 0; i < dec.parts; ++i)
    EXPECT_TRUE(is_connected(dec.partition.parts[i].graph));
}

TEST(Decomposition, DiameterWithinTheorem2Budget) {
  Rng rng(3);
  const Graph g = gen::random_regular(256, 32, rng);
  DecompositionOptions opts;
  opts.C = 2.0;
  const auto dec = decompose(g, 32, opts);
  ASSERT_TRUE(dec.all_spanning());
  const double budget =
      Decomposition::diameter_budget(g.node_count(), min_degree(g), opts.C);
  // Tree depth upper-bounds half the subgraph diameter; use 2x slack over
  // the Theorem 2 constant (the proof constant is ~20).
  EXPECT_LE(dec.max_tree_depth(), 2.0 * budget)
      << "depth=" << dec.max_tree_depth() << " budget=" << budget;
}

TEST(Decomposition, DeterministicInSeed) {
  const Graph g = gen::circulant(100, 10);
  DecompositionOptions opts;
  opts.seed = 99;
  const auto d1 = decompose(g, 20, opts);
  const auto d2 = decompose(g, 20, opts);
  EXPECT_EQ(d1.partition.color, d2.partition.color);
  EXPECT_EQ(d1.max_tree_depth(), d2.max_tree_depth());
}

TEST(Decomposition, LowLambdaFewerParts) {
  const Graph g = gen::circulant(100, 10);
  const auto few = decompose(g, 4);
  const auto more = decompose(g, 20);
  EXPECT_LE(few.parts, more.parts);
}

TEST(Decomposition, ChecksCostAccounted) {
  Rng rng(4);
  const Graph g = gen::random_regular(128, 16, rng);
  const auto dec = decompose(g, 16);
  EXPECT_GT(dec.check_rounds, 0u);
  EXPECT_GT(dec.messages, 0u);
}

TEST(Decomposition, DumbbellWithTrueLambdaUsuallySplitsBadly) {
  // On the dumbbell with 2 bridges, overestimating λ as δ = s-1 produces
  // parts that miss the bridges and cannot span — exactly the failure the
  // oblivious search must detect.
  const Graph g = gen::dumbbell(32, 2);
  DecompositionOptions opts;
  opts.C = 0.5;  // force many parts relative to the true λ = 2
  const auto dec = decompose(g, /*claimed lambda=*/31, opts);
  EXPECT_GE(dec.parts, 2u);
  EXPECT_FALSE(dec.all_spanning());
}

TEST(Decomposition, BudgetFormula) {
  EXPECT_DOUBLE_EQ(Decomposition::diameter_budget(0, 5, 2.0), 0.0);
  EXPECT_GT(Decomposition::diameter_budget(100, 5, 2.0),
            Decomposition::diameter_budget(100, 10, 2.0));
}

TEST(Decomposition, CarriesTheEngineOfItsPartBfs) {
  // The part BFS ran on the decomposition's own engine, and the engine
  // keeps serving composites over the parts after the Decomposition has
  // moved: the result equals a one-shot composite on the same parts.
  Rng rng(5);
  const Graph g = gen::random_regular(128, 24, rng);
  DecompositionOptions opts;
  opts.C = 1.0;
  Decomposition dec = decompose(g, 24, opts);
  ASSERT_GE(dec.parts, 2u);
  ASSERT_NE(dec.engine, nullptr);
  EXPECT_EQ(dec.engine->runs_started(), 1u);
  EXPECT_EQ(dec.messages, dec.bfs.messages);
  EXPECT_EQ(dec.bfs.instances.size(), dec.parts);
  EXPECT_EQ(dec.check_rounds,
            dec.bfs.rounds + 2ull * bfs_tree(g, opts.root).depth());

  const Decomposition moved = std::move(dec);
  std::vector<std::unique_ptr<algo::DistributedBfs>> algs;
  const auto bfs_from_9 = [&] {
    std::vector<congest::EdgeDisjointInstance> work;
    for (const Subgraph& part : moved.partition.parts) {
      algs.push_back(std::make_unique<algo::DistributedBfs>(part.graph, 9));
      work.push_back({&part, algs.back().get()});
    }
    return work;
  };
  const auto reused = moved.engine->run(g, bfs_from_9(), opts);
  EXPECT_EQ(moved.engine->runs_started(), 2u);
  const auto once = congest::run_edge_disjoint(g, bfs_from_9(), opts);
  EXPECT_EQ(reused.rounds, once.rounds);
  EXPECT_EQ(reused.messages, once.messages);
  EXPECT_EQ(reused.parent_edge_congestion, once.parent_edge_congestion);
  EXPECT_EQ(reused.arc_sends, once.arc_sends);
  ASSERT_EQ(reused.instances.size(), once.instances.size());
  for (std::size_t i = 0; i < once.instances.size(); ++i) {
    EXPECT_EQ(reused.instances[i].rounds, once.instances[i].rounds) << i;
    EXPECT_EQ(reused.instances[i].finished, once.instances[i].finished) << i;
  }
}

class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint32_t>> {};

TEST_P(DecompositionSweep, SpansAcrossParameters) {
  auto [n, d] = GetParam();
  Rng rng(mix64(n, d));
  const Graph g = gen::random_regular(n, d, rng);
  const auto dec = decompose(g, d);
  EXPECT_TRUE(dec.all_spanning()) << "n=" << n << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(
    Params, DecompositionSweep,
    ::testing::Values(std::tuple<NodeId, std::uint32_t>{64, 16},
                      std::tuple<NodeId, std::uint32_t>{128, 24},
                      std::tuple<NodeId, std::uint32_t>{256, 40},
                      std::tuple<NodeId, std::uint32_t>{200, 20}));

}  // namespace
}  // namespace fc::core
