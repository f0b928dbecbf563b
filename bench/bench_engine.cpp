// Experiment N1: round-engine throughput, dense sweep vs event-driven
// (sparse) activation.
//
// The engine promises O(active nodes + messages) work per round. This
// harness quantifies what that buys across the three activation regimes:
//
//   * deep path    — BFS frontier of O(1) nodes for n rounds: the dense
//                    sweep pays O(n) no-op handler calls per round (O(n^2)
//                    total), the sparse engine pays O(1) per round. The
//                    headline regime: speedups in the 100-1000x range.
//   * expander     — few rounds, nearly everything active every round
//                    (batch-bfs keeps per-node backlogs hot): sparse must
//                    NOT regress here; activation bookkeeping is the only
//                    delta.
//   * star         — one hot hub, n leaves active for exactly one round.
//   * messages>>n  — batch-bfs with k=256 sources on the expander: every
//                    round delivers far more messages than there are
//                    nodes, so the serial delivery stamp pass (not handler
//                    dispatch) is the bottleneck; CI asserts its row stays
//                    identical.
//
// Both engines must produce bit-identical results (rounds, messages,
// per-arc sends) — the harness checks and prints it. `--quick` shrinks n
// for the CI smoke run; both modes emit BENCH_engine.json via the shared
// bench_common JSON emitter so the perf trajectory is recorded PR-over-PR.
//
// Experiment N2 (same binary, built-in grid only): telemetry overhead —
// off vs rounds vs full recording on the deep-path and expander regimes.
// CI guards "rounds" mode at <= 8% overhead on the quick deep path, the
// contract that makes the counter series safe to leave on
// (docs/OBSERVABILITY.md states what the rows measure).
//
// Experiment N4 (built-in grid only): composite edge-disjoint execution —
// run_edge_disjoint's kSequential oracle (one Network per instance) vs the
// production kInterleaved mode (all instances in ONE engine run on the
// block-diagonal union graph), on 4-part BFS and on Theorem 1's per-part
// Lemma 1 broadcast. Composite and per-instance costs must agree exactly;
// each mode's time is its minimum over >= 3 alternating reps.
//
// Experiment N5 (built-in grid only): pool scaling — the N4 Lemma 1
// composite (interleaved) and the textbook PipelineBroadcast on the same
// graph, at engine pools 1, 2 and 4, each pool's time its minimum over
// >= 3 rotating reps; every pool must reproduce the same costs.
//
// Flags: --quick, --graph=<spec> (repeatable; replaces the built-in
// regimes), --sources=<k> (batch-bfs backlog width, default 64).

#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <tuple>

#include "algo/bfs.hpp"
#include "algo/leader_election.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "apps/batch_sssp.hpp"
#include "congest/network.hpp"
#include "congest/runner.hpp"
#include "graph/partition.hpp"

namespace fc::bench {
namespace {

using AlgFactory =
    std::function<std::unique_ptr<congest::Algorithm>(const Graph&)>;

struct EngineRun {
  congest::RunResult result;
  double ms_per_run = 0.0;
  double rounds_per_sec = 0.0;
};

/// Run (fresh algorithm, fresh network) repeatedly until >= 0.2 s of
/// engine time accumulates (50 reps cap), so the short expander/star runs
/// are timed above clock noise while the long path runs cost one rep.
EngineRun run_engine(const Graph& g, const AlgFactory& make, bool force_dense) {
  EngineRun out;
  congest::RunOptions opts;
  opts.force_dense = force_dense;
  double total_ms = 0.0;
  std::uint64_t reps = 0;
  while (reps < 50 && (reps == 0 || total_ms < 200.0)) {
    const auto alg = make(g);
    congest::Network net(g);
    const auto t0 = std::chrono::steady_clock::now();
    auto res = net.run(*alg, opts);
    const auto t1 = std::chrono::steady_clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.result = std::move(res);
    ++reps;
  }
  out.ms_per_run = total_ms / static_cast<double>(reps);
  out.rounds_per_sec = out.ms_per_run > 0.0
                           ? static_cast<double>(out.result.rounds) * 1000.0 /
                                 out.ms_per_run
                           : 0.0;
  return out;
}

struct Workload {
  std::string regime;
  std::string spec;
  std::string algo;
  AlgFactory make;
};

AlgFactory make_bfs() {
  return [](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::DistributedBfs>(g, 0);
  };
}

AlgFactory make_leader() {
  return [](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::LeaderElection>(g);
  };
}

AlgFactory make_batch_bfs(std::uint64_t sources) {
  return [sources](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::BatchBfs>(
        g, apps::default_sources(g, std::min<std::uint64_t>(
                                        sources, g.node_count())));
  };
}

/// The built-in regime grid. Quick mode shrinks n so the CI smoke stays
/// in seconds; full mode is the README reference measurement.
std::vector<Workload> builtin_workloads(bool quick, std::uint64_t sources) {
  const std::string path_n = quick ? "20000" : "100000";
  const std::string side = quick ? "40" : "70";
  const std::string leaves = quick ? "8192" : "65536";
  return {
      {"deep path", "path:n=" + path_n, "bfs", make_bfs()},
      {"expander", "margulis:side=" + side, "bfs", make_bfs()},
      {"expander", "margulis:side=" + side, "leader-election", make_leader()},
      {"expander", "margulis:side=" + side,
       "batch-bfs k=" + std::to_string(sources), make_batch_bfs(sources)},
      {"star", "complete_bipartite:a=1,b=" + leaves, "bfs", make_bfs()},
      // Delivery-bound regime: 256 concurrent BFS waves keep every arc
      // saturated, so per-round messages dwarf n and the stamp pass is
      // where the time goes. Present in quick mode too — the CI smoke
      // asserts this row exists and stays `identical`.
      {"messages>>n", "margulis:side=" + side, "batch-bfs k=256",
       make_batch_bfs(256)},
  };
}

void run_comparison(const std::vector<Workload>& workloads,
                    const std::string& cache, JsonReport& report) {
  banner("N1 / engine throughput",
         "dense sweep vs event-driven activation: identical results, "
         "rounds/sec measured per regime (deep path = sparse frontier, "
         "expander = everything active, star = one hot round).");
  Table table({"regime", "graph", "algo", "n", "m", "rounds", "messages",
               "dense ms", "sparse ms", "dense rps", "sparse rps", "speedup",
               "identical"});

  for (const auto& w : workloads) {
    const auto spec = scenario::GraphSpec::parse(w.spec);
    const Graph g = cache.empty()
                        ? scenario::Registry::instance().build(spec)
                        : scenario::load_or_generate(spec, cache);
    const auto dense = run_engine(g, w.make, /*force_dense=*/true);
    const auto sparse = run_engine(g, w.make, /*force_dense=*/false);
    const bool identical =
        dense.result.rounds == sparse.result.rounds &&
        dense.result.messages == sparse.result.messages &&
        dense.result.finished == sparse.result.finished &&
        dense.result.arc_sends == sparse.result.arc_sends;
    const double speedup = sparse.ms_per_run > 0.0
                               ? dense.ms_per_run / sparse.ms_per_run
                               : 0.0;
    table.add_row({w.regime, spec.to_string(), w.algo,
                   Table::num(std::size_t{g.node_count()}),
                   Table::num(std::size_t{g.edge_count()}),
                   Table::num(std::size_t{sparse.result.rounds}),
                   Table::num(std::size_t{sparse.result.messages}),
                   Table::num(dense.ms_per_run, 2),
                   Table::num(sparse.ms_per_run, 2),
                   Table::num(dense.rounds_per_sec, 0),
                   Table::num(sparse.rounds_per_sec, 0),
                   Table::num(speedup, 1), identical ? "yes" : "NO"});
    report.row()
        .add("regime", w.regime)
        .add("graph", spec.to_string())
        .add("algo", w.algo)
        .add("n", std::uint64_t{g.node_count()})
        .add("m", std::uint64_t{g.edge_count()})
        .add("rounds", sparse.result.rounds)
        .add("messages", sparse.result.messages)
        .add("dense_ms", dense.ms_per_run)
        .add("sparse_ms", sparse.ms_per_run)
        .add("dense_rounds_per_sec", dense.rounds_per_sec)
        .add("sparse_rounds_per_sec", sparse.rounds_per_sec)
        .add("speedup", speedup)
        .add("identical", identical);
    if (!identical)
      throw std::runtime_error("bench_engine: dense and sparse runs "
                               "disagree on " +
                               spec.to_string() + " / " + w.algo);
  }
  table.print(std::cout);
}

/// Experiment N2: what does leaving telemetry on cost? Measured on the
/// deep-path regime — the engine's worst case for fixed per-round overhead
/// (tens of thousands of rounds that each do almost no work) — plus the
/// expander regime, where real per-round work dilutes the overhead. The
/// "rounds" mode is the one meant to stay on in production; CI guards its
/// quick deep-path overhead at <= 8%.
void run_telemetry_overhead(bool quick, const std::string& cache,
                            JsonReport& report) {
  banner("N2 / telemetry overhead",
         "engine throughput with telemetry off vs rounds (counter series, "
         "no clocks) vs full (phase timers + histograms + annotations); "
         "sparse engine, worst case = deep path.");
  Table table({"regime", "graph", "off ms", "rounds ms", "full ms",
               "rounds ovh %", "full ovh %"});
  const std::string path_n = quick ? "20000" : "100000";
  const std::string side = quick ? "40" : "70";
  const std::vector<std::pair<std::string, std::string>> regimes = {
      {"deep path", "path:n=" + path_n},
      {"expander", "margulis:side=" + side},
  };
  for (const auto& [regime, spec_text] : regimes) {
    const auto spec = scenario::GraphSpec::parse(spec_text);
    const Graph g = cache.empty()
                        ? scenario::Registry::instance().build(spec)
                        : scenario::load_or_generate(spec, cache);
    const auto make = make_bfs();
    // One timed run of bfs on g under `tmode` (fresh everything, like
    // run_engine's reps).
    const auto one = [&](congest::TelemetryMode tmode) {
      const auto alg = make(g);
      congest::Network net(g);
      congest::Telemetry telemetry(tmode);
      congest::RunOptions opts;
      opts.telemetry = telemetry.enabled() ? &telemetry : nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      net.run(*alg, opts);
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    // Interleave the three modes rep by rep and keep each mode's MINIMUM:
    // the modes see the same thermal/frequency drift, and the minimum is
    // the run least disturbed by scheduler noise — the right statistic for
    // an overhead ratio on a shared machine.
    const double est = one(congest::TelemetryMode::kOff);
    const auto reps = static_cast<std::uint64_t>(
        std::clamp(150.0 / std::max(est, 1e-3), 5.0, 60.0));
    double off = est, rounds = 1e300, full = 1e300;
    for (std::uint64_t i = 0; i < reps; ++i) {
      off = std::min(off, one(congest::TelemetryMode::kOff));
      rounds = std::min(rounds, one(congest::TelemetryMode::kRounds));
      full = std::min(full, one(congest::TelemetryMode::kFull));
    }
    const auto pct = [&](double ms) {
      return off > 0.0 ? (ms / off - 1.0) * 100.0 : 0.0;
    };
    table.add_row({regime, spec.to_string(), Table::num(off, 2),
                   Table::num(rounds, 2), Table::num(full, 2),
                   Table::num(pct(rounds), 1), Table::num(pct(full), 1)});
    report.row()
        .add("regime", "telemetry-overhead")
        .add("graph", spec.to_string())
        .add("algo", "bfs")
        .add("off_ms", off)
        .add("rounds_ms", rounds)
        .add("full_ms", full)
        .add("rounds_overhead_pct", pct(rounds))
        .add("full_overhead_pct", pct(full));
  }
  table.print(std::cout);
}

/// Experiment N4: composite edge-disjoint execution. A 4-part
/// communication-free edge partition, one instance per part — the
/// kSequential oracle (one Network per instance, k round loops) vs the
/// production kInterleaved mode (ONE engine run on the block-diagonal union
/// graph). Two workloads: one BFS per part of the expander — runs of a few
/// dozen rounds, where building the union graph and its engine (paid on
/// every one-shot call) weighs against the round loops it saves — and
/// Theorem 1's production composite, a Lemma 1 PipelineBroadcast per part
/// of perfbench's bcast-expander graph. The two modes must agree on every
/// composite and per-instance cost; the speedup is sequential_ms /
/// interleaved_ms, each the mode's minimum over alternating reps.
void run_composite_row(const Graph& g, const std::string& spec,
                       const std::string& algo, const EdgePartition& partition,
                       const std::function<std::unique_ptr<congest::Algorithm>(
                           std::size_t part)>& make,
                       Table& table, JsonReport& report) {
  // One timed composite run in `mode`, fresh algorithms every time.
  const auto one = [&](congest::CompositeMode mode) {
    std::vector<std::unique_ptr<congest::Algorithm>> algs;
    std::vector<congest::EdgeDisjointInstance> work;
    for (std::size_t i = 0; i < partition.parts.size(); ++i) {
      algs.push_back(make(i));
      work.push_back({&partition.parts[i], algs.back().get()});
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto res = congest::run_edge_disjoint(g, work, {}, mode);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair(std::move(res),
                     std::chrono::duration<double, std::milli>(t1 - t0).count());
  };
  // Alternate the modes rep by rep, swapping which one runs first, and keep
  // each mode's MINIMUM (as N2 does): neither mode always runs first, both
  // see the same drift. At least 3 reps per mode; short composites repeat
  // until about 0.2 s of sequential time (50 reps cap).
  auto [seq, seq_ms] = one(congest::CompositeMode::kSequential);
  auto [inter, inter_ms] = one(congest::CompositeMode::kInterleaved);
  const auto reps = static_cast<std::uint64_t>(
      std::clamp(200.0 / std::max(seq_ms, 1e-3), 3.0, 50.0));
  for (std::uint64_t i = 1; i < reps; ++i) {
    for (const bool sequential : {i % 2 == 0, i % 2 == 1}) {
      double& best = sequential ? seq_ms : inter_ms;
      best = std::min(best, one(sequential ? congest::CompositeMode::kSequential
                                           : congest::CompositeMode::kInterleaved)
                                .second);
    }
  }

  bool identical = seq.rounds == inter.rounds &&
                   seq.messages == inter.messages &&
                   seq.finished == inter.finished &&
                   seq.parent_edge_congestion == inter.parent_edge_congestion &&
                   seq.arc_sends == inter.arc_sends &&
                   seq.instances.size() == inter.instances.size();
  for (std::size_t i = 0; identical && i < seq.instances.size(); ++i)
    identical = seq.instances[i].rounds == inter.instances[i].rounds &&
                seq.instances[i].finished == inter.instances[i].finished;
  const double speedup = inter_ms > 0.0 ? seq_ms / inter_ms : 0.0;
  table.add_row({spec, algo, Table::num(std::size_t{inter.rounds}),
                 Table::num(std::size_t{inter.messages}),
                 Table::num(std::size_t{inter.max_parent_edge_congestion()}),
                 Table::num(seq_ms, 2), Table::num(inter_ms, 2),
                 Table::num(speedup, 2), identical ? "yes" : "NO"});
  report.row()
      .add("regime", "edge-disjoint composite")
      .add("graph", spec)
      .add("algo", algo)
      .add("n", std::uint64_t{g.node_count()})
      .add("m", std::uint64_t{g.edge_count()})
      .add("rounds", inter.rounds)
      .add("messages", inter.messages)
      .add("max_parent_edge_congestion",
           std::uint64_t{inter.max_parent_edge_congestion()})
      .add("sequential_ms", seq_ms)
      .add("interleaved_ms", inter_ms)
      .add("composite_speedup", speedup)
      .add("identical", identical);
  if (!identical)
    throw std::runtime_error(
        "bench_engine: sequential and interleaved composite runs disagree "
        "on " +
        spec + " / " + algo);
}

constexpr std::uint32_t kParts = 4;

std::pair<Graph, std::string> load_graph(const std::string& text,
                                         const std::string& cache) {
  const auto spec = scenario::GraphSpec::parse(text);
  return {cache.empty() ? scenario::Registry::instance().build(spec)
                        : scenario::load_or_generate(spec, cache),
          spec.to_string()};
}

/// Theorem 1's phase 4 as run_fast_broadcast issues it, on perfbench's
/// bcast-expander graph: a 4-part edge partition, a BFS tree per part
/// (built once, untimed) and part i owning ids [i*K, (i+1)*K) of k random
/// messages. Shared by N4 and N5.
struct Lemma1Workload {
  Graph g;
  std::string spec;
  std::uint64_t k = 0;
  EdgePartition partition;
  std::vector<algo::SpanningTree> trees;
  std::vector<algo::PlacedMessage> msgs;
  std::vector<std::vector<algo::PlacedMessage>> assigned;

  Lemma1Workload(bool quick, const std::string& cache)
      : k(quick ? 2048 : 4096) {
    std::tie(g, spec) = load_graph(quick ? "random_regular:n=512,d=64,seed=1"
                                         : "random_regular:n=1024,d=64,seed=1",
                                   cache);
    partition = random_edge_partition(g, kParts, /*seed=*/0x5eed);
    for (const auto& part : partition.parts)
      trees.push_back(algo::run_bfs(part.graph, 0).tree);
    Rng rng(0x6e34);
    msgs = random_messages(g, k, rng);
    const std::uint64_t per_part = (k + kParts - 1) / kParts;
    assigned.resize(kParts);
    for (const auto& m : msgs) assigned[m.id / per_part].push_back(m);
  }

  std::string composite_name() const {
    return "pipeline-broadcast x" + std::to_string(kParts) +
           " k=" + std::to_string(k);
  }

  std::unique_ptr<congest::Algorithm> make_part(std::size_t i) const {
    return std::make_unique<algo::PipelineBroadcast>(partition.parts[i].graph,
                                                     trees[i], assigned[i]);
  }
};

void run_composite(const Lemma1Workload& lemma1, bool quick,
                   const std::string& cache, JsonReport& report) {
  banner("N4 / interleaved edge-disjoint runs",
         "run_edge_disjoint: sequential oracle (one engine run per "
         "instance) vs production interleaved (all instances in one engine "
         "run on the union graph); composite + per-instance costs must be "
         "identical.");
  Table table({"graph", "algo", "rounds", "messages", "max congestion",
               "sequential ms", "interleaved ms", "speedup", "identical"});
  {
    const auto [g, spec] =
        load_graph(quick ? "margulis:side=40" : "margulis:side=70", cache);
    const auto partition = random_edge_partition(g, kParts, /*seed=*/0x5eed);
    run_composite_row(
        g, spec, "bfs x" + std::to_string(kParts), partition,
        [&](std::size_t i) {
          return std::make_unique<algo::DistributedBfs>(
              partition.parts[i].graph, 0);
        },
        table, report);
  }
  run_composite_row(
      lemma1.g, lemma1.spec, lemma1.composite_name(), lemma1.partition,
      [&](std::size_t i) { return lemma1.make_part(i); }, table, report);
  table.print(std::cout);
}

/// Experiment N5: pool scaling. Theorem 1's Lemma 1 work at engine pools
/// 1, 2 and 4: the N4 per-part composite (interleaved, the production
/// mode) and the textbook PipelineBroadcast of all k messages down one BFS
/// tree of the whole graph. Each pool's time is its minimum over >= 3 reps
/// that rotate the pool order; every pool must reproduce pool 1's costs
/// exactly (rounds, messages, per-arc sends).
void run_pool_scaling(const Lemma1Workload& lemma1, JsonReport& report) {
  banner("N5 / pool scaling",
         "the Lemma 1 composite (interleaved) and the textbook pipeline at "
         "engine pools 1, 2, 4; per-pool minimum over rotating reps, costs "
         "must be identical across pools.");
  Table table({"graph", "algo", "rounds", "messages", "pool 1 ms",
               "pool 2 ms", "pool 4 ms", "scaling 1->4", "identical"});
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
  const std::size_t kPools = std::size(pools);

  // One run's deterministic costs: rounds, messages, finished, then the
  // per-arc sends; equal vectors mean bit-identical runs.
  using Costs = std::vector<std::uint64_t>;
  const auto costs_of = [](const congest::RunResult& r) {
    Costs c{r.rounds, r.messages, r.finished};
    c.insert(c.end(), r.arc_sends.begin(), r.arc_sends.end());
    return c;
  };
  const auto composite = [&](ThreadPool& pool) {
    std::vector<std::unique_ptr<congest::Algorithm>> algs;
    std::vector<congest::EdgeDisjointInstance> work;
    for (std::size_t i = 0; i < lemma1.partition.parts.size(); ++i) {
      algs.push_back(lemma1.make_part(i));
      work.push_back({&lemma1.partition.parts[i], algs.back().get()});
    }
    congest::RunOptions opts;
    opts.pool = &pool;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = congest::run_edge_disjoint(lemma1.g, work, opts);
    const auto t1 = std::chrono::steady_clock::now();
    Costs c{res.rounds, res.messages, res.finished};
    for (const auto& inst : res.instances) {
      c.push_back(inst.rounds);
      c.push_back(inst.finished);
    }
    c.insert(c.end(), res.arc_sends.begin(), res.arc_sends.end());
    return std::pair(
        std::move(c),
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  };
  const algo::SpanningTree tree = algo::run_bfs(lemma1.g, 0).tree;
  const auto textbook = [&](ThreadPool& pool) {
    algo::PipelineBroadcast alg(lemma1.g, tree, lemma1.msgs);
    congest::Network net(lemma1.g);
    congest::RunOptions opts;
    opts.pool = &pool;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = net.run(alg, opts);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair(
        costs_of(res),
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  };

  using Runner = std::function<std::pair<Costs, double>(ThreadPool&)>;
  const std::pair<std::string, Runner> rows[] = {
      {lemma1.composite_name() + " interleaved", composite},
      {"pipeline-broadcast k=" + std::to_string(lemma1.k) + " textbook",
       textbook},
  };
  for (const auto& [algo_name, run] : rows) {
    std::vector<Costs> costs(kPools);
    std::vector<double> best(kPools, 1e300);
    std::uint64_t reps = 3;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      for (std::size_t j = 0; j < kPools; ++j) {
        const std::size_t p = (rep + j) % kPools;
        auto [c, ms] = run(pools[p]);
        // Short runs repeat until about 0.2 s at pool 1 (50 reps cap).
        if (rep == 0 && p == 0)
          reps = static_cast<std::uint64_t>(
              std::clamp(200.0 / std::max(ms, 1e-3), 3.0, 50.0));
        best[p] = std::min(best[p], ms);
        costs[p] = std::move(c);
      }
    }
    const bool identical =
        std::all_of(costs.begin(), costs.end(),
                    [&](const Costs& c) { return c == costs[0]; });
    const double scaling = best[2] > 0.0 ? best[0] / best[2] : 0.0;
    table.add_row({lemma1.spec, algo_name, Table::num(std::size_t{costs[0][0]}),
                   Table::num(std::size_t{costs[0][1]}),
                   Table::num(best[0], 2), Table::num(best[1], 2),
                   Table::num(best[2], 2), Table::num(scaling, 2),
                   identical ? "yes" : "NO"});
    report.row()
        .add("regime", "pool scaling")
        .add("graph", lemma1.spec)
        .add("algo", algo_name)
        .add("n", std::uint64_t{lemma1.g.node_count()})
        .add("m", std::uint64_t{lemma1.g.edge_count()})
        .add("rounds", costs[0][0])
        .add("messages", costs[0][1])
        .add("pool1_ms", best[0])
        .add("pool2_ms", best[1])
        .add("pool4_ms", best[2])
        .add("scaling_1_to_4", scaling)
        .add("identical", identical);
    if (!identical)
      throw std::runtime_error("bench_engine: pools 1/2/4 disagree on " +
                               lemma1.spec + " / " + algo_name);
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace fc::bench

int main(int argc, char** argv) {
  using namespace fc;
  const Options opts(argc, argv);
  const bool quick = opts.get_bool("quick");
  const auto sources =
      static_cast<std::uint64_t>(opts.get_int("sources", 64));
  const std::string cache = opts.get("cache", "");
  try {
    std::vector<bench::Workload> work;
    const auto custom = opts.get_all("graph");
    if (!custom.empty()) {
      // Caller-chosen scenarios: compare both engines on bfs +
      // batch-bfs (the sparse- and dense-activation extremes).
      for (const auto& text : custom) {
        work.push_back({"custom", text, "bfs", bench::make_bfs()});
        work.push_back({"custom", text,
                        "batch-bfs k=" + std::to_string(sources),
                        bench::make_batch_bfs(sources)});
      }
    } else {
      work = bench::builtin_workloads(quick, sources);
    }
    bench::JsonReport report("engine");
    report.meta("mode", quick ? "quick" : "full");
    bench::add_run_metadata(report);
    bench::run_comparison(work, cache, report);
    // The overhead and composite regimes use their own built-in graphs;
    // custom --graph invocations stay a pure two-engine comparison.
    if (custom.empty()) {
      bench::run_telemetry_overhead(quick, cache, report);
      const bench::Lemma1Workload lemma1(quick, cache);
      bench::run_composite(lemma1, quick, cache, report);
      bench::run_pool_scaling(lemma1, report);
    }
    std::cout << "wrote " << report.write() << "\n";
  } catch (const std::exception& err) {
    std::cerr << "bench_engine: " << err.what() << "\n";
    return 2;
  }
  return 0;
}
