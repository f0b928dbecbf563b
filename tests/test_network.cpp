#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <atomic>

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
  EXPECT_EQ(res.per_instance.size(), 2u);
  EXPECT_EQ(res.messages,
            res.per_instance[0].messages + res.per_instance[1].messages);
  EXPECT_EQ(res.rounds, std::max(res.per_instance[0].rounds,
                                 res.per_instance[1].rounds));
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

}  // namespace
}  // namespace fc::congest
