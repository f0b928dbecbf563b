#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc {
namespace {

Graph triangle() { return Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(Graph, BasicCounts) {
  const Graph g = triangle();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.arc_count(), 6u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {0, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, CanonicalEdgeEndpoints) {
  const Graph g = Graph::from_edges(4, {{3, 1}, {2, 0}});
  EXPECT_LT(g.edge_u(0), g.edge_v(0));
  EXPECT_LT(g.edge_u(1), g.edge_v(1));
  EXPECT_EQ(g.edge_u(0), 1u);
  EXPECT_EQ(g.edge_v(0), 3u);
}

TEST(Graph, ArcReverseIsInvolution) {
  const Graph g = gen::hypercube(4);
  for (ArcId a = 0; a < g.arc_count(); ++a) {
    EXPECT_EQ(g.arc_reverse(g.arc_reverse(a)), a);
    EXPECT_NE(g.arc_reverse(a), a);
    EXPECT_EQ(g.arc_head(a), g.arc_tail(g.arc_reverse(a)));
    EXPECT_EQ(g.arc_tail(a), g.arc_head(g.arc_reverse(a)));
  }
}

TEST(Graph, ArcsOfNodeAreContiguousAndOwned) {
  const Graph g = gen::circulant(11, 2);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.arc_end(v) - g.arc_begin(v), g.degree(v));
    for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a)
      EXPECT_EQ(g.arc_tail(a), v);
  }
}

TEST(Graph, ArcEdgeMappingConsistent) {
  const Graph g = triangle();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto [a, b] = g.edge_arcs(e);
    EXPECT_EQ(g.arc_edge(a), e);
    EXPECT_EQ(g.arc_edge(b), e);
    EXPECT_EQ(g.arc_reverse(a), b);
    EXPECT_EQ(g.arc_tail(a), g.edge_u(e));
    EXPECT_EQ(g.arc_head(a), g.edge_v(e));
  }
}

TEST(Graph, NeighborsMatchArcs) {
  const Graph g = gen::grid(3, 4);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto nbrs = g.neighbors(v);
    ASSERT_EQ(nbrs.size(), g.degree(v));
    std::size_t i = 0;
    for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a, ++i)
      EXPECT_EQ(nbrs[i], g.arc_head(a));
  }
}

TEST(Graph, FindArc) {
  const Graph g = triangle();
  const ArcId a = g.find_arc(0, 2);
  ASSERT_NE(a, kInvalidArc);
  EXPECT_EQ(g.arc_tail(a), 0u);
  EXPECT_EQ(g.arc_head(a), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  const Graph p = gen::path(4);
  EXPECT_EQ(p.find_arc(0, 3), kInvalidArc);
  EXPECT_FALSE(p.has_edge(0, 2));
}

TEST(Graph, EdgeListRoundTrips) {
  Rng rng(99);
  const Graph g = gen::erdos_renyi(40, 0.2, rng);
  const auto edges = g.edge_list();
  const Graph h = Graph::from_edges(40, edges);
  EXPECT_EQ(h.edge_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(h.edge_u(e), g.edge_u(e));
    EXPECT_EQ(h.edge_v(e), g.edge_v(e));
  }
}

TEST(Graph, DescribeMentionsCounts) {
  const std::string d = triangle().describe();
  EXPECT_NE(d.find("n=3"), std::string::npos);
  EXPECT_NE(d.find("m=3"), std::string::npos);
}

TEST(Subgraph, KeepsSelectedEdges) {
  const Graph g = gen::cycle(6);
  const std::vector<EdgeId> keep{0, 2, 4};
  const Subgraph s = make_subgraph(g, keep);
  EXPECT_EQ(s.graph.node_count(), 6u);
  EXPECT_EQ(s.graph.edge_count(), 3u);
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(s.parent_edge[e], keep[e]);
    EXPECT_EQ(s.graph.edge_u(e), g.edge_u(keep[e]));
    EXPECT_EQ(s.graph.edge_v(e), g.edge_v(keep[e]));
  }
}

TEST(Subgraph, EmptySelection) {
  const Graph g = gen::cycle(5);
  const Subgraph s = make_subgraph(g, std::vector<EdgeId>{});
  EXPECT_EQ(s.graph.node_count(), 5u);
  EXPECT_EQ(s.graph.edge_count(), 0u);
}

/// Every CSR array of `got` equals `want`'s, read through the accessors.
void expect_same_csr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  ASSERT_EQ(got.arc_count(), want.arc_count());
  for (NodeId v = 0; v < want.node_count(); ++v) {
    EXPECT_EQ(got.arc_begin(v), want.arc_begin(v)) << v;
    EXPECT_EQ(got.arc_end(v), want.arc_end(v)) << v;
  }
  for (ArcId a = 0; a < want.arc_count(); ++a) {
    EXPECT_EQ(got.arc_head(a), want.arc_head(a)) << a;
    EXPECT_EQ(got.arc_tail(a), want.arc_tail(a)) << a;
    EXPECT_EQ(got.arc_reverse(a), want.arc_reverse(a)) << a;
    EXPECT_EQ(got.arc_edge(a), want.arc_edge(a)) << a;
  }
  for (EdgeId e = 0; e < want.edge_count(); ++e) {
    EXPECT_EQ(got.edge_u(e), want.edge_u(e)) << e;
    EXPECT_EQ(got.edge_v(e), want.edge_v(e)) << e;
    EXPECT_EQ(got.edge_arcs(e), want.edge_arcs(e)) << e;
  }
}

TEST(Graph, DisjointUnionMatchesFromEdgesOfTheConcatenation) {
  // from_edges of the offset, concatenated edge lists is the oracle. The
  // blocks include an edgeless one, isolated nodes, a nodeless default
  // Graph, and edge lists in non-canonical input order.
  Rng rng(12);
  const Graph regular = gen::random_regular(40, 6, rng);
  const Graph isolated = Graph::from_edges(7, {{5, 1}, {2, 4}});
  const Graph edgeless =
      Graph::from_edges(3, std::vector<std::pair<NodeId, NodeId>>{});
  const Graph nodeless;
  const Graph tri = triangle();
  const std::vector<const Graph*> blocks{&regular, &edgeless, &isolated,
                                         &nodeless, &tri, &regular};
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId base = 0;
  for (const Graph* b : blocks) {
    for (const auto& [u, v] : b->edge_list())
      edges.emplace_back(base + v, base + u);  // from_edges canonicalizes
    base += b->node_count();
  }
  expect_same_csr(Graph::disjoint_union(blocks),
                  Graph::from_edges(base, edges));
  expect_same_csr(Graph::disjoint_union(std::vector<const Graph*>{&tri}),
                  tri);
  expect_same_csr(Graph::disjoint_union({}),
                  Graph::from_edges(0, std::vector<std::pair<NodeId, NodeId>>{}));
}

}  // namespace
}  // namespace fc
