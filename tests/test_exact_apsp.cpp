#include "apps/exact_apsp.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace fc::apps {
namespace {

class ExactApspFamilyTest : public ::testing::TestWithParam<int> {
 protected:
  Graph make_graph() const {
    Rng rng(GetParam() * 17 + 3);
    switch (GetParam()) {
      case 0: return gen::path(24);
      case 1: return gen::cycle(30);
      case 2: return gen::grid(5, 6);
      case 3: return gen::random_regular(48, 4, rng);
      case 4: return gen::hypercube(5);
      default: return gen::thick_path(6, 4);
    }
  }
};

TEST_P(ExactApspFamilyTest, MatchesSequentialApsp) {
  const Graph g = make_graph();
  const auto report = exact_apsp_distributed(g);
  const auto expected = apsp_exact(g);
  for (NodeId v = 0; v < g.node_count(); ++v)
    EXPECT_EQ(report.dist[v], expected[v]) << "node " << v;
}

TEST_P(ExactApspFamilyTest, MessageLevelCollisionFreedom) {
  // PRT12's theorem, observed at the message level: every node's forward
  // queue stays at size <= 1 (a collision would make it 2).
  const Graph g = make_graph();
  const auto report = exact_apsp_distributed(g);
  EXPECT_LE(report.max_queue, 1u);
}

INSTANTIATE_TEST_SUITE_P(Families, ExactApspFamilyTest, ::testing::Range(0, 6));

TEST(ExactApsp, RoundsLinearInN) {
  // 2n DFS + (<= 4n + D) BFS rounds: a Θ(n) algorithm.
  Rng rng(7);
  const Graph g = gen::random_regular(64, 6, rng);
  const auto report = exact_apsp_distributed(g);
  EXPECT_EQ(report.dfs_rounds, 2ull * 63);
  EXPECT_LE(report.bfs_rounds, 4ull * 64 + diameter_exact(g) + 8);
  EXPECT_EQ(report.total_rounds, report.dfs_rounds + report.bfs_rounds);
}

TEST(ExactApsp, MessagesBoundedByNTimesArcs) {
  // Each (node, source) pair triggers at most one send over each arc.
  const Graph g = gen::grid(4, 4);
  const auto report = exact_apsp_distributed(g);
  EXPECT_LE(report.messages,
            static_cast<std::uint64_t>(g.node_count()) * g.arc_count());
}

TEST(ExactApsp, DifferentDfsRootsAgree) {
  const Graph g = gen::cycle(20);
  const auto a = exact_apsp_distributed(g, 0);
  const auto b = exact_apsp_distributed(g, 13);
  EXPECT_EQ(a.dist, b.dist);
}

TEST(ExactApsp, CancelledRunReportsInsteadOfThrowing) {
  const Graph g = gen::circulant(60, 3);
  congest::CancelToken token;
  token.cancel();
  congest::RunOptions opts;
  opts.cancel = &token;
  const auto report = exact_apsp_distributed(g, 0, opts);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.bfs_rounds, 0u);
  EXPECT_EQ(report.dist[0][1], kUnreached);
  EXPECT_FALSE(exact_apsp_distributed(g).cancelled);
}

TEST(ExactApsp, CallerRoundCapBindsAndThrows) {
  // The uncapped run needs 129 delayed-BFS rounds; a 5-round cap cuts it.
  const Graph g = gen::circulant(60, 3);
  congest::RunOptions opts;
  opts.max_rounds = 5;
  EXPECT_THROW(exact_apsp_distributed(g, 0, opts), std::runtime_error);
  EXPECT_EQ(exact_apsp_distributed(g).bfs_rounds, 129u);
}

TEST(ExactApsp, DisconnectedThrows) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(exact_apsp_distributed(g), std::invalid_argument);
}

}  // namespace
}  // namespace fc::apps
