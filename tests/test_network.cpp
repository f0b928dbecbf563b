#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "algo/bfs.hpp"
#include "congest/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace fc::congest {
namespace {

/// Node 0 sends a token that bounces back and forth `hops` times on a
/// two-node graph. Exercises delivery timing and send validation.
class PingPong : public Algorithm {
 public:
  explicit PingPong(int hops) : hops_(hops) {}
  void start(Context& ctx) override {
    if (ctx.id() == 0 && hops_ > 0) ctx.send(ctx.arc_begin(), {1, 0, 0});
  }
  void step(Context& ctx) override {
    for (const auto& in : ctx.inbox()) {
      ++bounces_;
      if (static_cast<int>(in.msg.a) + 1 < hops_)
        ctx.send(in.via, {1, in.msg.a + 1, 0});
    }
  }
  bool done() const override { return bounces_.load() >= hops_; }
  std::atomic<int> bounces_{0};
  int hops_;
};

/// Every node sends its id to all neighbours in round 0 and records what it
/// hears in round 1. The round-0 wakeup schedules round 1 for every node,
/// isolated ones included (they hear nothing but must still finish).
class HelloAll : public Algorithm {
 public:
  explicit HelloAll(const Graph& g) : heard_(g.node_count()) {}
  void start(Context& ctx) override {
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {1, ctx.id(), 0});
    ctx.request_wakeup();
  }
  void step(Context& ctx) override {
    if (ctx.round() != 1) return;
    for (const auto& in : ctx.inbox())
      heard_[ctx.id()].push_back(static_cast<NodeId>(in.msg.a));
    ++finished_;
  }
  bool done() const override { return finished_.load() >= static_cast<int>(heard_.size()); }
  std::vector<std::vector<NodeId>> heard_;
  std::atomic<int> finished_{0};
};

/// Misbehaving algorithms for the enforcement tests.
class DoubleSender : public Algorithm {
 public:
  explicit DoubleSender(NodeId culprit = 0) : culprit_(culprit) {}
  void start(Context& ctx) override {
    if (ctx.id() == culprit_) {
      ctx.send(ctx.arc_begin(), {1, 0, 0});
      ctx.send(ctx.arc_begin(), {1, 0, 0});  // CONGEST violation
    }
  }
  void step(Context&) override {}
  bool done() const override { return false; }

 private:
  NodeId culprit_;
};

class WrongArcSender : public Algorithm {
 public:
  void start(Context& ctx) override {
    if (ctx.id() == 0) {
      const Graph& g = ctx.graph();
      ctx.send(g.arc_begin(1), {1, 0, 0});  // somebody else's arc
    }
  }
  void step(Context&) override {}
  bool done() const override { return false; }
};

TEST(Network, PingPongDeliversOnePerRound) {
  const Graph g = gen::path(2);
  Network net(g);
  PingPong alg(10);
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  EXPECT_EQ(alg.bounces_.load(), 10);
  // One message per round: 10 messages over rounds 0..9, done detected at 10.
  EXPECT_EQ(res.messages, 10u);
  EXPECT_LE(res.rounds, 12u);
}

TEST(Network, MessagesArriveNextRound) {
  const Graph g = gen::complete(5);
  Network net(g);
  HelloAll alg(g);
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(alg.heard_[v].size(), 4u);  // heard every neighbour
  }
  EXPECT_EQ(res.messages, 20u);  // 5 nodes x 4 neighbours
}

TEST(Network, InboxSortedByArc) {
  const Graph g = gen::complete(6);
  // HelloAll receives neighbour ids; with sorted inboxes, node 0 hears
  // 1, 2, 3, 4, 5 in adjacency (arc) order.
  Network net(g);
  HelloAll alg(g);
  net.run(alg);
  const std::vector<NodeId> expect{1, 2, 3, 4, 5};
  EXPECT_EQ(alg.heard_[0], expect);
}

TEST(Network, DoubleSendThrows) {
  const Graph g = gen::path(2);
  Network net(g);
  DoubleSender alg;
  EXPECT_THROW(net.run(alg, {.max_rounds = 3}), std::logic_error);
}

TEST(Network, DoubleSendOnAPoolHelperThrowsAndTheEngineStaysUsable) {
  // circulant(600, 3) is big enough for round 0 to run in 4 chunks, so
  // node 599's violation throws on a pool helper thread, not the caller.
  const Graph g = gen::circulant(600, 3);
  ThreadPool pool(4);
  Network net(g);
  DoubleSender bad(599);
  EXPECT_THROW(net.run(bad, {.max_rounds = 3, .pool = &pool}),
               std::logic_error);
  // The aborted run leaves nothing behind: the same engine reproduces a
  // fresh engine's run bit for bit.
  HelloAll reused(g), fresh(g);
  const auto r1 = net.run(reused, {.pool = &pool});
  Network fresh_net(g);
  const auto r2 = fresh_net.run(fresh, {.pool = &pool});
  EXPECT_TRUE(r1.finished);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.undelivered, r2.undelivered);
  EXPECT_EQ(r1.arc_sends, r2.arc_sends);
  EXPECT_EQ(reused.heard_, fresh.heard_);
}

TEST(Network, ForeignArcThrows) {
  const Graph g = gen::path(3);
  Network net(g);
  WrongArcSender alg;
  EXPECT_THROW(net.run(alg, {.max_rounds = 3}), std::logic_error);
}

TEST(Network, MaxRoundsStopsRun) {
  const Graph g = gen::path(2);
  Network net(g);
  PingPong alg(1'000'000);
  const auto res = net.run(alg, {.max_rounds = 50});
  EXPECT_FALSE(res.finished);
  EXPECT_EQ(res.rounds, 50u);
}

TEST(Network, CongestionAccounting) {
  const Graph g = gen::path(2);
  Network net(g);
  PingPong alg(9);
  const auto res = net.run(alg);
  // The single edge carried all 9 messages (both directions combined).
  EXPECT_EQ(res.edge_congestion(g, 0), 9u);
  EXPECT_EQ(res.max_edge_congestion(g), 9u);
}

TEST(Network, SerialAndParallelAgree) {
  const Graph g = gen::circulant(600, 3);  // big enough to trigger threads
  Network net1(g), net2(g);
  HelloAll a1(g), a2(g);
  ThreadPool serial(1);
  const auto r1 = net1.run(a1, {.pool = &serial});
  const auto r2 = net2.run(a2);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(a1.heard_, a2.heard_);
  EXPECT_EQ(r1.arc_sends, r2.arc_sends);
}

TEST(Network, RunIsRepeatable) {
  const Graph g = gen::cycle(8);
  Network net(g);
  HelloAll a1(g);
  const auto r1 = net.run(a1);
  HelloAll a2(g);
  const auto r2 = net.run(a2);  // same Network object, state must reset
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(a1.heard_, a2.heard_);
}

TEST(Runner, RejectsOverlappingInstances) {
  const Graph g = gen::cycle(6);
  const std::vector<EdgeId> all{0, 1, 2, 3, 4, 5};
  Subgraph s1 = make_subgraph(g, all);
  Subgraph s2 = make_subgraph(g, std::vector<EdgeId>{0});
  PingPong a1(1), a2(1);
  std::vector<EdgeDisjointInstance> work{{&s1, &a1}, {&s2, &a2}};
  EXPECT_THROW(run_edge_disjoint(g, work), std::logic_error);
}

TEST(Runner, CombinesDisjointInstances) {
  const Graph g = gen::cycle(6);
  Subgraph s1 = make_subgraph(g, std::vector<EdgeId>{0, 1, 2});
  Subgraph s2 = make_subgraph(g, std::vector<EdgeId>{3, 4, 5});
  HelloAll a1(s1.graph), a2(s2.graph);
  std::vector<EdgeDisjointInstance> work{{&s1, &a1}, {&s2, &a2}};
  const auto res = run_edge_disjoint(g, work);
  EXPECT_TRUE(res.finished);
  ASSERT_EQ(res.instances.size(), 2u);
  EXPECT_EQ(res.rounds,
            std::max(res.instances[0].rounds, res.instances[1].rounds));
  EXPECT_EQ(res.arc_sends.size(), s1.graph.arc_count() + s2.graph.arc_count());
  std::uint64_t sent = 0;
  for (auto s : res.arc_sends) sent += s;
  EXPECT_EQ(sent, res.messages);
  // Parent congestion folds through the edge maps.
  std::uint64_t total = 0;
  for (auto c : res.parent_edge_congestion) total += c;
  EXPECT_EQ(total, res.messages);
}

TEST(Runner, NullInstanceRejected) {
  const Graph g = gen::cycle(4);
  std::vector<EdgeDisjointInstance> work{{nullptr, nullptr}};
  EXPECT_THROW(run_edge_disjoint(g, work), std::logic_error);
}

TEST(Runner, RejectsPartsOfAnotherGraph) {
  // A partition of a 64-node graph run against a 16-node parent names
  // parent edges the parent does not have: every path must refuse it
  // before reading or writing by those ids.
  Rng rng(3);
  const Graph big = gen::random_regular(64, 8, rng);
  const Graph parent = gen::random_regular(16, 4, rng);
  const EdgePartition partition = random_edge_partition(big, 2, 7);
  HelloAll a0(partition.parts[0].graph), a1(partition.parts[1].graph);
  const std::vector<EdgeDisjointInstance> work{{&partition.parts[0], &a0},
                                               {&partition.parts[1], &a1}};
  for (const CompositeMode mode :
       {CompositeMode::kInterleaved, CompositeMode::kSequential})
    EXPECT_THROW(run_edge_disjoint(parent, work, {}, mode), std::logic_error);
  const std::vector<const Subgraph*> parts{&partition.parts[0],
                                           &partition.parts[1]};
  EdgeDisjointEngine engine(parts);
  EXPECT_THROW(engine.run(parent, work), std::logic_error);
  EXPECT_EQ(engine.runs_started(), 0u);

  // A parent_edge map that does not cover its part's edges is refused too.
  Subgraph torn = partition.parts[0];
  torn.parent_edge.pop_back();
  HelloAll a2(torn.graph);
  const std::vector<EdgeDisjointInstance> torn_work{{&torn, &a2}};
  for (const CompositeMode mode :
       {CompositeMode::kInterleaved, CompositeMode::kSequential})
    EXPECT_THROW(run_edge_disjoint(big, torn_work, {}, mode),
                 std::logic_error);
}

/// BFS from node 0 in every part, as Theorem 1's part BFS runs it.
struct PartBfs {
  std::vector<std::unique_ptr<algo::DistributedBfs>> algs;
  std::vector<EdgeDisjointInstance> work;
  explicit PartBfs(const EdgePartition& partition) {
    for (const Subgraph& part : partition.parts) {
      algs.push_back(std::make_unique<algo::DistributedBfs>(part.graph, 0));
      work.push_back({&part, algs.back().get()});
    }
  }
};

/// HelloAll in every part.
struct PartHello {
  std::vector<std::unique_ptr<HelloAll>> algs;
  std::vector<EdgeDisjointInstance> work;
  explicit PartHello(const EdgePartition& partition) {
    for (const Subgraph& part : partition.parts) {
      algs.push_back(std::make_unique<HelloAll>(part.graph));
      work.push_back({&part, algs.back().get()});
    }
  }
};

void expect_same_composite(const CompositeResult& got,
                           const CompositeResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.finished, want.finished);
  EXPECT_EQ(got.parent_edge_congestion, want.parent_edge_congestion);
  EXPECT_EQ(got.arc_sends, want.arc_sends);
  ASSERT_EQ(got.instances.size(), want.instances.size());
  for (std::size_t i = 0; i < want.instances.size(); ++i) {
    EXPECT_EQ(got.instances[i].rounds, want.instances[i].rounds) << i;
    EXPECT_EQ(got.instances[i].finished, want.instances[i].finished) << i;
  }
}

TEST(Runner, CompositeArcSendsFollowTheUnionLayout) {
  // Both one-shot modes report per-arc sends in the union's layout: slice
  // i, at the arc count of the parts before it, is instance i's own run.
  Rng rng(8);
  const Graph g = gen::random_regular(80, 10, rng);
  const EdgePartition partition = random_edge_partition(g, 3, 4);
  ArcId total = 0;
  for (const Subgraph& part : partition.parts) total += part.graph.arc_count();
  for (const CompositeMode mode :
       {CompositeMode::kInterleaved, CompositeMode::kSequential}) {
    SCOPED_TRACE(mode == CompositeMode::kInterleaved ? "interleaved"
                                                     : "sequential");
    PartBfs bfs(partition);
    const CompositeResult res = run_edge_disjoint(g, bfs.work, {}, mode);
    ASSERT_TRUE(res.finished);
    ASSERT_EQ(res.arc_sends.size(), total);
    ASSERT_EQ(res.instances.size(), partition.parts.size());
    ArcId base = 0;
    for (std::size_t i = 0; i < partition.parts.size(); ++i) {
      const Graph& part = partition.parts[i].graph;
      algo::DistributedBfs alone_alg(part, 0);
      Network alone(part);
      const RunResult want = alone.run(alone_alg);
      const auto slice = res.arc_sends.begin() + base;
      EXPECT_EQ(std::vector<std::uint64_t>(slice, slice + part.arc_count()),
                want.arc_sends)
          << i;
      EXPECT_EQ(res.instances[i].rounds, want.rounds) << i;
      EXPECT_EQ(res.instances[i].finished, want.finished) << i;
      base += part.arc_count();
    }
  }
}

TEST(Runner, OneEngineRunsTwoCompositesLikeTwoOneShotCalls) {
  Rng rng(5);
  const Graph g = gen::random_regular(96, 12, rng);
  const EdgePartition partition = random_edge_partition(g, 3, 11);
  std::vector<const Subgraph*> parts;
  for (const Subgraph& part : partition.parts) parts.push_back(&part);

  PartBfs bfs_once(partition), bfs_engine(partition);
  PartHello hello_once(partition), hello_engine(partition);
  const CompositeResult bfs_want = run_edge_disjoint(g, bfs_once.work);
  const CompositeResult hello_want = run_edge_disjoint(g, hello_once.work);

  EdgeDisjointEngine engine(parts);
  expect_same_composite(engine.run(g, bfs_engine.work), bfs_want);
  expect_same_composite(engine.run(g, hello_engine.work), hello_want);
  EXPECT_EQ(engine.runs_started(), 2u);
  for (std::size_t i = 0; i < parts.size(); ++i)
    for (NodeId v = 0; v < g.node_count(); ++v)
      EXPECT_EQ(bfs_engine.algs[i]->dist(v), bfs_once.algs[i]->dist(v));
}

TEST(Runner, EngineRejectsWorkBoundToOtherParts) {
  Rng rng(6);
  const Graph g = gen::random_regular(48, 8, rng);
  const EdgePartition partition = random_edge_partition(g, 2, 3);
  const EdgePartition twin = random_edge_partition(g, 2, 3);
  EdgeDisjointEngine engine(std::vector<const Subgraph*>{
      &partition.parts[0], &partition.parts[1]});
  PartHello same(partition), other(twin);
  // The twin partition has the same edges, in other Subgraph objects.
  EXPECT_THROW(engine.run(g, other.work), std::logic_error);
  // Swapped order, one instance short, one too many.
  std::vector<EdgeDisjointInstance> swapped{same.work[1], same.work[0]};
  EXPECT_THROW(engine.run(g, swapped), std::logic_error);
  EXPECT_THROW(engine.run(g, std::span(same.work).first(1)),
               std::logic_error);
  std::vector<EdgeDisjointInstance> extra = same.work;
  extra.push_back(other.work[0]);
  EXPECT_THROW(engine.run(g, extra), std::logic_error);
  EXPECT_EQ(engine.runs_started(), 0u);
  EXPECT_TRUE(engine.run(g, same.work).finished);

  EXPECT_THROW(EdgeDisjointEngine(std::vector<const Subgraph*>{nullptr}),
               std::logic_error);
}

}  // namespace
}  // namespace fc::congest
