// Differential contract of the round engine's one schedule: for every
// algorithm, the default sparse run (only nodes with messages or a pending
// wakeup step) is BIT-IDENTICAL to the RunOptions::force_dense sweep — same
// rounds, messages, per-arc sends, and per-node outputs — on the registry
// differential spec grid, at engine pool sizes 1, 2, and 8. Step-counting
// algorithms (a BFS wrapper and a plain Algorithm subclass) verify the
// engine actually skips idle nodes, and a wakeup-driven algorithm pins
// down the request_wakeup semantics.

#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "algo/bfs.hpp"
#include "algo/convergecast.hpp"
#include "algo/id_assignment.hpp"
#include "algo/leader_election.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "apps/batch_sssp.hpp"
#include "apps/clustering.hpp"
#include "apps/exact_apsp.hpp"
#include "apps/mst.hpp"
#include "apps/sssp.hpp"
#include "congest/runner.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace fc::congest {
namespace {

/// The registry differential grid shared with the MST/SSSP suites: >= 4
/// families, hash-derived weights, one unit-weight, one disconnected
/// (forest) family, and one largest_cc restriction.
const char* const kSpecs[] = {
    "random_regular:n=96,d=6,seed=3,weights=1..100",
    "harary:n=64,k=5,weights=1..50",
    "watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40",
    "dumbbell:s=24,bridges=3,weights=1..9",
    "rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100",
    "thick_cycle:groups=8,width=4",
};

/// Engine pool sizes under test; chunk boundaries differ at each, so this
/// doubles as the thread-invariance check for the new delivery path.
const std::size_t kThreads[] = {1, 2, 8};

void expect_same_cost(const RunResult& dense, const RunResult& sparse) {
  EXPECT_EQ(dense.rounds, sparse.rounds);
  EXPECT_EQ(dense.messages, sparse.messages);
  EXPECT_EQ(dense.undelivered, sparse.undelivered);
  EXPECT_EQ(dense.finished, sparse.finished);
  EXPECT_EQ(dense.arc_sends, sparse.arc_sends);
}

/// Run `make()`'s algorithm under both engines on every pool size and
/// compare the engine cost plus `outputs(alg)`'s per-node digest.
template <typename MakeAlg, typename Outputs>
void differential(const Graph& g, const MakeAlg& make,
                  const Outputs& outputs) {
  RunOptions dense_opts;
  dense_opts.force_dense = true;
  auto baseline_alg = make();
  Network baseline_net(g);
  const RunResult baseline = baseline_net.run(*baseline_alg, dense_opts);
  const auto baseline_out = outputs(*baseline_alg);
  for (const std::size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    RunOptions opts;
    opts.pool = &pool;
    {
      auto alg = make();
      Network net(g);
      const RunResult sparse = net.run(*alg, opts);
      expect_same_cost(baseline, sparse);
      EXPECT_EQ(baseline_out, outputs(*alg));
    }
    {
      opts.force_dense = true;
      auto alg = make();
      Network net(g);
      const RunResult dense = net.run(*alg, opts);
      expect_same_cost(baseline, dense);
      EXPECT_EQ(baseline_out, outputs(*alg));
    }
  }
}

TEST(SparseEngine, BfsDifferential) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    differential(
        g, [&] { return std::make_unique<algo::DistributedBfs>(g, 0); },
        [](const algo::DistributedBfs& alg) { return alg.distances(); });
  }
}

TEST(SparseEngine, BatchBfsDifferentialWithWakeupBacklog) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    // k = 8 queries from node 0..7: per-node FIFOs stay non-empty across
    // rounds, so the wakeup path carries the pipelining.
    const auto sources = apps::default_sources(g, 8);
    differential(
        g, [&] { return std::make_unique<algo::BatchBfs>(g, sources); },
        [](const algo::BatchBfs& alg) {
          std::vector<std::uint32_t> out;
          for (std::uint32_t s = 0; s < alg.k(); ++s) {
            const auto d = alg.source_distances(s);
            out.insert(out.end(), d.begin(), d.end());
          }
          return out;
        });
  }
}

TEST(SparseEngine, LeaderElectionDifferential) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    differential(
        g, [&] { return std::make_unique<algo::LeaderElection>(g); },
        [&](const algo::LeaderElection& alg) {
          std::vector<NodeId> out;
          for (NodeId v = 0; v < g.node_count(); ++v)
            out.push_back(alg.known_max(v));
          return out;
        });
  }
}

TEST(SparseEngine, PipelineBroadcastDifferential) {
  // A deep backlog on a path: node n-1 holds every item, so its FIFO
  // drains one per round purely on wakeups while the rest of the graph
  // sleeps until the relay arrives.
  const Graph g = scenario::build_graph("path:n=64");
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 32; ++i)
    msgs.push_back({static_cast<NodeId>(g.node_count() - 1), i, i * 977});
  differential(
      g,
      [&] { return std::make_unique<algo::PipelineBroadcast>(g, tree, msgs); },
      [&](const algo::PipelineBroadcast& alg) {
        std::vector<std::uint64_t> out;
        for (NodeId v = 0; v < g.node_count(); ++v) {
          out.push_back(alg.digest(v));
          out.push_back(alg.received_count(v));
        }
        return out;
      });
}

TEST(SparseEngine, ConvergecastDifferential) {
  const Graph g = scenario::build_graph("watts_strogatz:n=96,k=6,p=0.2,seed=5");
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<std::uint64_t> values(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) values[v] = v;
  differential(
      g,
      [&] {
        return std::make_unique<algo::Convergecast>(
            g, tree, algo::AggregateOp::kSum, values);
      },
      [&](const algo::Convergecast& alg) {
        std::vector<std::uint64_t> out;
        for (NodeId v = 0; v < g.node_count(); ++v) out.push_back(alg.result(v));
        return out;
      });
}

TEST(SparseEngine, SsspAndBatchSsspDifferential) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    differential(
        g.graph(),
        [&] { return std::make_unique<apps::DistributedBellmanFord>(g, 0); },
        [](const apps::DistributedBellmanFord& alg) {
          return alg.distances();
        });
    const auto sources = apps::default_sources(g.graph(), 8);
    differential(
        g.graph(),
        [&] { return std::make_unique<apps::BatchBellmanFord>(g, sources); },
        [](const apps::BatchBellmanFord& alg) {
          std::vector<Weight> out;
          for (std::uint32_t s = 0; s < alg.k(); ++s) {
            const auto d = alg.source_distances(s);
            out.insert(out.end(), d.begin(), d.end());
          }
          return out;
        });
  }
}

TEST(SparseEngine, MstReportDifferential) {
  // distributed_mst composes many engine executions (announce, echoes,
  // connect) — the whole report must survive the engine swap untouched.
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    apps::MstOptions dense;
    dense.force_dense = true;
    const auto a = apps::distributed_mst(g);
    const auto b = apps::distributed_mst(g, dense);
    EXPECT_EQ(a.tree_edges, b.tree_edges);
    EXPECT_EQ(a.total_weight, b.total_weight);
    EXPECT_EQ(a.phases, b.phases);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.announce_messages, b.announce_messages);
    EXPECT_EQ(a.merge_messages, b.merge_messages);
    EXPECT_EQ(a.arc_sends, b.arc_sends);
    EXPECT_EQ(a.fragment, b.fragment);
  }
}

TEST(SparseEngine, EveryRegisteredAlgoMatchesThroughTheRunner) {
  // The acceptance bar: every --algo the ScenarioRunner registers produces
  // a bit-identical report (rounds, messages, congestion, note — the note
  // encodes per-query outputs such as depths, digests, and weights) under
  // --engine=dense vs the default event-driven engine.
  const scenario::ScenarioRunner runner;
  auto algos = runner.algorithms();
  const auto weighted = runner.weighted_algorithms();
  algos.insert(algos.end(), weighted.begin(), weighted.end());
  for (const std::string spec :
       {std::string("rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100,"
                    "sources=4"),
        std::string("dumbbell:s=24,bridges=3,weights=1..9,sources=4")}) {
    SCOPED_TRACE(spec);
    for (const auto& algo : algos) {
      SCOPED_TRACE(algo);
      scenario::ScenarioConfig cfg;
      const auto sparse = runner.run_spec(algo, spec, cfg);
      cfg.force_dense = true;
      const auto dense = runner.run_spec(algo, spec, cfg);
      EXPECT_EQ(sparse.rounds, dense.rounds);
      EXPECT_EQ(sparse.messages, dense.messages);
      EXPECT_EQ(sparse.max_arc_congestion, dense.max_arc_congestion);
      EXPECT_EQ(sparse.max_edge_congestion, dense.max_edge_congestion);
      EXPECT_EQ(sparse.finished, dense.finished);
      EXPECT_EQ(sparse.note, dense.note);
    }
  }
}

TEST(SparseEngine, LargeGraphCrossesParallelThreshold) {
  // n >= 512 puts both the dense sweep and the sparse kActiveScan rounds
  // (batch-bfs keeps nearly every node scheduled) onto the pool's parallel
  // path — the case the TSAN CI job re-runs under ThreadSanitizer.
  const Graph g = scenario::build_graph("random_regular:n=600,d=4,seed=9");
  const auto sources = apps::default_sources(g, 8);
  differential(
      g, [&] { return std::make_unique<algo::BatchBfs>(g, sources); },
      [](const algo::BatchBfs& alg) {
        std::vector<std::uint32_t> out;
        for (std::uint32_t s = 0; s < alg.k(); ++s) {
          const auto d = alg.source_distances(s);
          out.insert(out.end(), d.begin(), d.end());
        }
        return out;
      });
  differential(
      g, [&] { return std::make_unique<algo::DistributedBfs>(g, 0); },
      [](const algo::DistributedBfs& alg) { return alg.distances(); });
}

/// BFS wrapper counting step() invocations: the sparse engine must invoke
/// far fewer handlers than the dense sweep on a deep path.
class CountingBfs : public algo::DistributedBfs {
 public:
  using DistributedBfs::DistributedBfs;
  void step(Context& ctx) override {
    steps_.fetch_add(1, std::memory_order_relaxed);
    DistributedBfs::step(ctx);
  }
  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> steps_{0};
};

/// A plain Algorithm — start, step and done only, no scheduling hooks: a
/// token walks the path from node 0 to node n-1, one hop per round, and
/// step() counts its own invocations.
class PathRelay : public Algorithm {
 public:
  explicit PathRelay(const Graph& g) : n_(g.node_count()) {}
  void start(Context& ctx) override {
    if (ctx.id() == 0) ctx.send(ctx.arc_begin(), {1, 0, 0});
  }
  void step(Context& ctx) override {
    steps_.fetch_add(1, std::memory_order_relaxed);
    if (ctx.inbox().empty()) return;
    if (ctx.id() + 1 == n_) arrived_.store(true, std::memory_order_relaxed);
    const ArcId from = ctx.inbox().front().via;
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      if (a != from) ctx.send(a, {1, 0, 0});
  }
  bool done() const override {
    return arrived_.load(std::memory_order_relaxed);
  }
  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  NodeId n_;
  std::atomic<bool> arrived_{false};
  std::atomic<std::uint64_t> steps_{0};
};

TEST(SparseEngine, SkipsIdleNodesOnDeepPath) {
  const Graph g = scenario::build_graph("path:n=512");
  const std::uint64_t n = g.node_count();
  RunOptions dense_opts;
  dense_opts.force_dense = true;
  // Dense: every node steps every round, Theta(n^2) handler calls. Sparse:
  // each node is activated O(1) times, O(n) calls in total.
  const auto check = [&](auto& sparse, auto& dense) {
    Network net_sparse(g), net_dense(g);
    const auto rs = net_sparse.run(sparse);
    const auto rd = net_dense.run(dense, dense_opts);
    expect_same_cost(rd, rs);
    EXPECT_EQ(dense.steps(), n * (rd.rounds - 1));
    EXPECT_LE(sparse.steps(), 4 * n);
    EXPECT_LT(sparse.steps() * 50, dense.steps());
  };
  {
    SCOPED_TRACE("bfs");
    CountingBfs sparse(g, 0), dense(g, 0);
    check(sparse, dense);
  }
  {
    // The sparse schedule is the default for every Algorithm, not an
    // opt-in: a subclass that declares nothing about scheduling gets it.
    SCOPED_TRACE("plain algorithm");
    PathRelay sparse(g), dense(g);
    check(sparse, dense);
    EXPECT_EQ(sparse.steps(), n - 1);
  }
}

/// request_wakeup contract: a node may keep itself scheduled without any
/// traffic. The ticker stays silent for `delay` rounds (waking itself),
/// then floods one token; done() counts receipts.
class DelayedFlood : public Algorithm {
 public:
  DelayedFlood(const Graph& g, std::uint64_t delay)
      : delay_(delay), n_(g.node_count()) {}
  std::string name() const override { return "delayed-flood"; }
  void start(Context& ctx) override {
    if (ctx.id() == 0) ctx.request_wakeup();
  }
  void step(Context& ctx) override {
    if (ctx.id() == 0 && ctx.round() < delay_) {
      ctx.request_wakeup();
      return;
    }
    if (ctx.id() == 0 && ctx.round() == delay_) {
      for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
        ctx.send(a, {1, 0, 0});
      return;
    }
    if (!ctx.inbox().empty()) heard_.fetch_add(1, std::memory_order_relaxed);
  }
  bool done() const override {
    return heard_.load(std::memory_order_relaxed) + 1 >= n_;
  }

 private:
  std::uint64_t delay_;
  NodeId n_;
  std::atomic<NodeId> heard_{0};
};

TEST(SparseEngine, RequestWakeupKeepsSilentNodesScheduled) {
  const Graph g = scenario::build_graph("complete:n=16");
  for (const bool force_dense : {false, true}) {
    SCOPED_TRACE(force_dense);
    Network net(g);
    DelayedFlood alg(g, 10);
    RunOptions opts;
    opts.force_dense = force_dense;
    const auto res = net.run(alg, opts);
    ASSERT_TRUE(res.finished);
    // Silent for rounds 1..9, flood at round 10, heard at round 11.
    EXPECT_EQ(res.rounds, 12u);
    EXPECT_EQ(res.messages, 15u);
  }
}

TEST(SparseEngine, IdAssignmentDifferential) {
  // First of the three former dense holdouts: the up/down tree passes are
  // purely message-driven, so the sparse engine must reproduce the dense
  // id ranges exactly.
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    const auto tree = algo::run_bfs(g, 0).tree;
    if (tree.covered != g.node_count()) continue;  // needs a spanning tree
    std::vector<std::uint64_t> counts(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) counts[v] = v % 3 + 1;
    differential(
        g,
        [&] { return std::make_unique<algo::IdAssignment>(g, tree, counts); },
        [&](const algo::IdAssignment& alg) {
          std::vector<std::uint64_t> out{alg.total()};
          for (NodeId v = 0; v < g.node_count(); ++v)
            out.push_back(alg.first_id(v));
          return out;
        });
  }
}

TEST(SparseEngine, ExactApspDifferentialThroughEntryPoint) {
  // Second holdout: DelayedBfs keeps itself scheduled through a wakeup
  // chain until its round-2π(v) source timer fires; the whole report —
  // including max_queue, the PRT12 certificate — must survive the engine
  // swap at every pool size.
  for (const std::string spec :
       {std::string("harary:n=64,k=5"),
        std::string("random_regular:n=96,d=6,seed=3")}) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    RunOptions dense;
    dense.force_dense = true;
    const auto baseline = apps::exact_apsp_distributed(g, 0, dense);
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      RunOptions opts;
      opts.pool = &pool;
      const auto sparse = apps::exact_apsp_distributed(g, 0, opts);
      EXPECT_EQ(baseline.dist, sparse.dist);
      EXPECT_EQ(baseline.bfs_rounds, sparse.bfs_rounds);
      EXPECT_EQ(baseline.total_rounds, sparse.total_rounds);
      EXPECT_EQ(baseline.messages, sparse.messages);
      EXPECT_EQ(baseline.max_queue, sparse.max_queue);
    }
  }
}

TEST(SparseEngine, ClusteringDifferentialThroughEntryPoint) {
  // Third holdout: the two-round clustering schedule is wakeup-driven (a
  // degree-0 node must still pick s(v) and count itself finished), so the
  // full clustering — centers, assignments, Gc — must be engine-invariant.
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    apps::ClusteringOptions dense;
    dense.force_dense = true;
    const auto baseline = apps::build_clustering(g, 4, dense);
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      apps::ClusteringOptions opts;
      opts.pool = &pool;
      const auto sparse = apps::build_clustering(g, 4, opts);
      EXPECT_EQ(baseline.s, sparse.s);
      EXPECT_EQ(baseline.centers, sparse.centers);
      EXPECT_EQ(baseline.cluster_of, sparse.cluster_of);
      EXPECT_EQ(baseline.rounds, sparse.rounds);
      EXPECT_EQ(baseline.self_promoted, sparse.self_promoted);
      EXPECT_EQ(baseline.cluster_graph.edge_count(),
                sparse.cluster_graph.edge_count());
    }
  }
}

TEST(SparseEngine, DeliveryBitIdenticalAcrossPoolsAndTelemetry) {
  // The delivery pass against a serial baseline (1-thread pool, rounds-mode
  // telemetry), at pools 2 and 8, under both schedules, with and without a
  // recorder: cost, outputs, AND the telemetry counter series must be
  // bit-identical — the with_input column is exactly the unique-receiver
  // count the pass derives from its `fresh` stamps. The TSAN CI job re-runs
  // this test to hold the pool's handler rounds race-free around it.
  const Graph g = scenario::build_graph("random_regular:n=600,d=4,seed=9");
  const auto sources = apps::default_sources(g, 8);
  const auto outputs = [](const algo::BatchBfs& alg) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t s = 0; s < alg.k(); ++s) {
      const auto d = alg.source_distances(s);
      out.insert(out.end(), d.begin(), d.end());
    }
    return out;
  };
  Telemetry tele_serial(TelemetryMode::kRounds);
  ThreadPool serial_pool(1);
  RunOptions serial;
  serial.pool = &serial_pool;
  serial.telemetry = &tele_serial;
  algo::BatchBfs base_alg(g, sources);
  Network base_net(g);
  const RunResult baseline = base_net.run(base_alg, serial);
  const auto baseline_out = outputs(base_alg);
  const auto baseline_series = tele_serial.snapshot().series;

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const bool force_dense : {false, true}) {
      for (const bool with_tele : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " dense=" << force_dense
                     << " tele=" << with_tele);
        ThreadPool pool(threads);
        Telemetry tele(TelemetryMode::kRounds);
        RunOptions opts;
        opts.pool = &pool;
        opts.force_dense = force_dense;
        if (with_tele) opts.telemetry = &tele;
        algo::BatchBfs alg(g, sources);
        Network net(g);
        const RunResult res = net.run(alg, opts);
        expect_same_cost(baseline, res);
        EXPECT_EQ(baseline_out, outputs(alg));
        if (with_tele) {
          const auto series = tele.snapshot().series;
          ASSERT_EQ(series.size(), baseline_series.size());
          for (std::size_t i = 0; i < series.size(); ++i) {
            EXPECT_EQ(baseline_series[i].with_input, series[i].with_input);
            EXPECT_EQ(baseline_series[i].delivered, series[i].delivered);
            EXPECT_EQ(baseline_series[i].sent, series[i].sent);
            EXPECT_EQ(baseline_series[i].wakeups, series[i].wakeups);
          }
        }
      }
    }
  }
}

TEST(SparseEngine, RunnerInterleavedMatchesSequential) {
  // The composite runner's two modes must be bit-identical in composite
  // cost, parent congestion, per-arc sends, per-instance rounds and
  // finished flags, and algorithm outputs —
  // kSequential is the oracle, kInterleaved the one-engine-run default, at
  // every pool size, under both schedules.
  for (const std::string spec :
       {std::string("thick_cycle:groups=8,width=4"),
        std::string("harary:n=64,k=5")}) {
    SCOPED_TRACE(spec);
    const Graph g = scenario::build_graph(spec);
    std::vector<std::vector<EdgeId>> keep(3);
    for (EdgeId e = 0; e < g.edge_count(); ++e) keep[e % 3].push_back(e);
    std::vector<Subgraph> parts;
    for (const auto& k : keep) parts.push_back(make_subgraph(g, k));

    const auto run_mode = [&](CompositeMode mode, ThreadPool* pool,
                              bool force_dense) {
      std::vector<std::unique_ptr<algo::DistributedBfs>> algs;
      std::vector<EdgeDisjointInstance> work;
      for (const auto& p : parts) {
        algs.push_back(std::make_unique<algo::DistributedBfs>(p.graph, 0));
        work.push_back({&p, algs.back().get()});
      }
      RunOptions opts;
      opts.pool = pool;
      opts.force_dense = force_dense;
      CompositeResult res = run_edge_disjoint(g, work, opts, mode);
      std::vector<std::uint32_t> out;
      for (const auto& a : algs) {
        const auto d = a->distances();
        out.insert(out.end(), d.begin(), d.end());
      }
      return std::pair(std::move(res), std::move(out));
    };

    const auto [base, base_out] =
        run_mode(CompositeMode::kSequential, nullptr, false);
    for (const std::size_t threads : kThreads) {
      for (const bool force_dense : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " dense=" << force_dense);
        ThreadPool pool(threads);
        const auto [res, out] =
            run_mode(CompositeMode::kInterleaved, &pool, force_dense);
        EXPECT_EQ(base.rounds, res.rounds);
        EXPECT_EQ(base.messages, res.messages);
        EXPECT_EQ(base.finished, res.finished);
        EXPECT_EQ(base.parent_edge_congestion, res.parent_edge_congestion);
        EXPECT_EQ(base.arc_sends, res.arc_sends);
        ASSERT_EQ(base.instances.size(), res.instances.size());
        for (std::size_t i = 0; i < base.instances.size(); ++i) {
          SCOPED_TRACE(i);
          EXPECT_EQ(base.instances[i].rounds, res.instances[i].rounds);
          EXPECT_EQ(base.instances[i].finished, res.instances[i].finished);
        }
        EXPECT_EQ(base_out, out);
      }
    }
  }
}

TEST(SparseEngine, EmptyArcSendsAccessorsAndMovedOutReuse) {
  const Graph g = scenario::build_graph("cycle:n=8");
  // The congestion accessors must tolerate an empty vector (a default
  // RunResult) — they report 0, like an all-zero one.
  const RunResult empty;
  EXPECT_TRUE(empty.arc_sends.empty());
  EXPECT_EQ(empty.edge_congestion(g, 0), 0u);
  EXPECT_EQ(empty.max_edge_congestion(g), 0u);
  // run() moves arc_sends out into the result; the network stays reusable.
  Network net(g);
  algo::DistributedBfs alg(g, 0);
  const auto res = net.run(alg);
  ASSERT_TRUE(res.finished);
  EXPECT_GT(res.messages, 0u);
  EXPECT_EQ(res.arc_sends.size(), g.arc_count());
  algo::DistributedBfs again(g, 0);
  const auto res2 = net.run(again);
  EXPECT_EQ(res2.arc_sends.size(), g.arc_count());
  EXPECT_EQ(res2.arc_sends, res.arc_sends);
}

}  // namespace
}  // namespace fc::congest
