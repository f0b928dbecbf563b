// The CSR build's contract: bit-identical layout to the serial reference
// at every size and thread count, and the same validation error for the
// same input, whichever threads build it.

#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "scenario/graph_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fc {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Every array the CSR is made of, including arc order and the arc/edge
/// cross-references.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.arc_begin(v), b.arc_begin(v));
    ASSERT_EQ(a.arc_end(v), b.arc_end(v));
  }
  for (ArcId arc = 0; arc < a.arc_count(); ++arc) {
    ASSERT_EQ(a.arc_head(arc), b.arc_head(arc));
    ASSERT_EQ(a.arc_tail(arc), b.arc_tail(arc));
    ASSERT_EQ(a.arc_reverse(arc), b.arc_reverse(arc));
    ASSERT_EQ(a.arc_edge(arc), b.arc_edge(arc));
  }
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e));
    ASSERT_EQ(a.edge_v(e), b.edge_v(e));
    ASSERT_EQ(a.edge_arcs(e), b.edge_arcs(e));
  }
  EXPECT_EQ(scenario::graph_checksum(a), scenario::graph_checksum(b));
}

EdgeList scrambled_edges(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g = gen::erdos_renyi(n, 8.0 / n, rng);
  EdgeList edges = g.edge_list();
  // Shuffle and flip orientations so the input is far from canonical.
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.below(i)]);
  for (std::size_t i = 0; i < edges.size(); i += 3)
    std::swap(edges[i].first, edges[i].second);
  return edges;
}

/// `edges` without {first}, then with it appended twice: as `first` and as
/// `second` (either orientation).
EdgeList with_duplicate(EdgeList edges, std::pair<NodeId, NodeId> first,
                        std::pair<NodeId, NodeId> second) {
  const std::pair<NodeId, NodeId> flipped{first.second, first.first};
  std::erase_if(edges,
                [&](const auto& e) { return e == first || e == flipped; });
  edges.push_back(first);
  edges.push_back(second);
  return edges;
}

/// `build()` must throw std::invalid_argument with exactly `what`.
template <typename Build>
void expect_invalid(const Build& build, const char* what) {
  try {
    build();
    FAIL() << "expected invalid_argument: " << what;
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), what);
  }
}

constexpr const char* kDuplicateEdge =
    "Graph: duplicate edge (simple graphs only)";

TEST(ParallelCsr, MatchesSerialAcrossThreadCounts) {
  const NodeId n = 2000;
  const EdgeList edges = scrambled_edges(n, 42);
  const Graph serial = Graph::from_edges_serial(n, edges);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    expect_identical(serial, Graph::from_edges(n, edges, pool));
  }
  // About 8k edges: below the size rule, built on the calling thread.
  expect_identical(serial, Graph::from_edges(n, edges));
}

TEST(ParallelCsr, AutomaticPathMatchesSerialAboveThreshold) {
  // 40k edges crosses the size rule: built on the global pool.
  Rng rng(7);
  const Graph g = gen::random_regular(10000, 8, rng);
  const EdgeList edges = g.edge_list();
  expect_identical(Graph::from_edges_serial(10000, edges),
                   Graph::from_edges(10000, edges));
}

TEST(ParallelCsr, EmptyAndTinyGraphs) {
  ThreadPool pool(4);
  const Graph empty = Graph::from_edges(0, EdgeList{}, pool);
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.arc_count(), 0u);
  const Graph one = Graph::from_edges(1, EdgeList{}, pool);
  EXPECT_EQ(one.node_count(), 1u);
  EXPECT_EQ(one.degree(0), 0u);
  const Graph pair = Graph::from_edges(2, EdgeList{{0, 1}}, pool);
  EXPECT_EQ(pair.edge_count(), 1u);
  EXPECT_EQ(pair.arc_reverse(0), 1u);
}

TEST(ParallelCsr, RejectsSelfLoop) {
  ThreadPool pool(4);
  EdgeList edges = scrambled_edges(500, 3);
  edges[edges.size() / 2] = {17, 17};
  expect_invalid([&] { Graph::from_edges(500, edges, pool); },
                 "Graph: self-loop");
}

TEST(ParallelCsr, RejectsOutOfRangeEndpoint) {
  ThreadPool pool(4);
  EdgeList edges = scrambled_edges(500, 4);
  edges.back() = {3, 500};
  expect_invalid([&] { Graph::from_edges(500, edges, pool); },
                 "Graph: endpoint >= n");
}

TEST(ParallelCsr, RejectsDuplicateEdgesEitherOrientation) {
  ThreadPool pool(4);
  for (const auto& dup : {std::pair<NodeId, NodeId>{1, 2},
                          std::pair<NodeId, NodeId>{2, 1}}) {
    const EdgeList edges = with_duplicate(scrambled_edges(500, 5), {1, 2}, dup);
    expect_invalid([&] { Graph::from_edges(500, edges, pool); },
                   kDuplicateEdge);
  }
  // Above the cutover, on the global pool: the duplicate sits between the
  // two highest node ids, so it is found through the largest stamp values.
  Rng rng(8);
  const NodeId n = 10000;
  const EdgeList big =
      with_duplicate(gen::random_regular(n, 8, rng).edge_list(),
                     {n - 2, n - 1}, {n - 1, n - 2});
  ASSERT_GE(big.size(), std::size_t{1} << 15);
  expect_invalid([&] { Graph::from_edges(n, big); }, kDuplicateEdge);
}

TEST(ParallelCsr, MixedInvalidInputReportsOneErrorAtEverySize) {
  // The duplicate {1, 2} comes first in input order, but an invalid edge
  // anywhere outranks it: every build reports the invalid edge.
  const std::pair<EdgeList, const char*> cases[] = {
      {{{1, 2}, {2, 1}, {3, 3}}, "Graph: self-loop"},
      {{{1, 2}, {2, 1}, {3, 9}}, "Graph: endpoint >= n"},
  };
  for (const auto& [edges, what] : cases) {
    SCOPED_TRACE(what);
    expect_invalid([&] { Graph::from_edges(5, edges); }, what);
    expect_invalid([&] { Graph::from_edges_serial(5, edges); }, what);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      expect_invalid([&] { Graph::from_edges(5, edges, pool); }, what);
    }
  }
}

TEST(ParallelCsr, ChecksumStableAcrossThreadCounts) {
  // The corpus checksum is over the CSR identity, so it must be invariant
  // under the build's parallelism (the determinism contract end to end).
  const EdgeList edges = scrambled_edges(3000, 99);
  std::uint64_t expected = 0;
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    const auto checksum =
        scenario::graph_checksum(Graph::from_edges(3000, edges, pool));
    if (expected == 0) expected = checksum;
    EXPECT_EQ(checksum, expected) << threads << " threads";
  }
}

TEST(ParallelWeightedGraph, RejectsNegativeWeightAndCountMismatch) {
  const EdgeList edges = scrambled_edges(800, 21);
  const Graph g = Graph::from_edges(800, edges);
  std::vector<Weight> weights(edges.size(), 1);
  weights[weights.size() - 3] = -5;
  EXPECT_THROW((void)WeightedGraph(g, weights), std::invalid_argument);
  weights.assign(edges.size() - 1, 1);
  EXPECT_THROW((void)WeightedGraph(g, weights), std::invalid_argument);
}

}  // namespace
}  // namespace fc
