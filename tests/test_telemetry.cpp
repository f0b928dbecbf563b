// Telemetry contract tests.
//
// The load-bearing property: recording NEVER changes or misreports the
// execution. Totals in the snapshot agree exactly with RunResult on the
// registry differential grid, across engine pool sizes and both engines,
// in both recording modes. On top of that: the kRounds series derivations
// (round = global sample index, delivered = previous round's sent, sweep
// run-length encoding, multi-run span boundaries, orphan truncation after
// a mid-run exception), annotation capture for MST phases and batch-SSSP
// generations, histogram summaries, and both exporters emitting valid
// JSON / NDJSON (validated with the in-tree util/json parser).

#include "congest/telemetry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "apps/batch_sssp.hpp"
#include "apps/mst.hpp"
#include "apps/sssp.hpp"
#include "congest/network.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace fc::congest {
namespace {

/// The registry differential grid (same specs as test_network_sparse).
const char* const kSpecs[] = {
    "random_regular:n=96,d=6,seed=3,weights=1..100",
    "harary:n=64,k=5,weights=1..50",
    "watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40",
    "dumbbell:s=24,bridges=3,weights=1..9",
    "rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100",
    "thick_cycle:groups=8,width=4",
};

const std::size_t kThreads[] = {1, 2, 8};

/// Every invariant a single-run recorder must satisfy against the engine's
/// own result, independent of mode, engine, and pool size.
void expect_exact(const Telemetry& tele, const RunResult& res,
                  const std::string& name) {
  ASSERT_TRUE(res.telemetry.has_value());
  const TelemetrySnapshot& snap = *res.telemetry;
  EXPECT_EQ(snap.mode, tele.mode());
  EXPECT_EQ(snap.rounds, res.rounds);
  EXPECT_EQ(snap.messages, res.messages);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, name);
  EXPECT_EQ(snap.spans[0].first_round, 0u);
  EXPECT_EQ(snap.spans[0].rounds, res.rounds);
  EXPECT_EQ(snap.spans[0].messages, res.messages);
  EXPECT_EQ(snap.spans[0].finished, res.finished);

  // The series lives in the recorder in both modes (the kRounds per-run
  // snapshot deliberately omits it; kFull includes it).
  if (tele.full())
    EXPECT_EQ(snap.series.size(), res.rounds);
  else
    EXPECT_TRUE(snap.series.empty());
  const std::vector<RoundSample>& series = tele.series();
  ASSERT_EQ(series.size(), res.rounds);
  std::uint64_t sent_total = 0, prev_sent = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const RoundSample& r = series[i];
    EXPECT_EQ(r.round, i);                 // derived: global sample index
    EXPECT_EQ(r.delivered, prev_sent);     // derived: last round's sent
    EXPECT_LE(r.with_input, r.active);     // every receiver steps
    sent_total += r.sent;
    prev_sent = r.sent;
  }
  EXPECT_EQ(sent_total, res.messages);

  if (tele.full()) {
    // Per-arc congestion: exact max and population over all directed arcs.
    std::uint64_t max_arc = 0;
    for (const std::uint64_t c : res.arc_sends) max_arc = std::max(max_arc, c);
    EXPECT_EQ(snap.arc_congestion.count, res.arc_sends.size());
    EXPECT_EQ(snap.arc_congestion.max, max_arc);
    // Non-empty inboxes exist iff messages flowed.
    EXPECT_EQ(snap.inbox_sizes.count > 0, res.messages > 0);
  } else {
    EXPECT_EQ(snap.arc_congestion.count, 0u);
    EXPECT_EQ(snap.inbox_sizes.count, 0u);
    EXPECT_TRUE(snap.annotations.empty());
  }
}

TEST(Telemetry, TotalsAgreeWithRunResultOnDifferentialGrid) {
  for (const std::string spec : kSpecs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = scenario::build_weighted_graph(spec);
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      for (const bool force_dense : {false, true}) {
        SCOPED_TRACE(force_dense);
        for (const TelemetryMode mode :
             {TelemetryMode::kRounds, TelemetryMode::kFull}) {
          SCOPED_TRACE(to_string(mode));
          Telemetry tele(mode);
          apps::DistributedBellmanFord alg(g, 0);
          RunOptions opts;
          opts.pool = &pool;
          opts.force_dense = force_dense;
          opts.telemetry = &tele;
          Network net(g.graph());
          const RunResult res = net.run(alg, opts);
          ASSERT_TRUE(res.finished);
          expect_exact(tele, res, alg.name());
          // Recording must not perturb the run: a bare re-run agrees.
          apps::DistributedBellmanFord bare_alg(g, 0);
          RunOptions bare = opts;
          bare.telemetry = nullptr;
          Network bare_net(g.graph());
          const RunResult ref = bare_net.run(bare_alg, bare);
          EXPECT_EQ(res.rounds, ref.rounds);
          EXPECT_EQ(res.messages, ref.messages);
          EXPECT_EQ(res.arc_sends, ref.arc_sends);
        }
      }
    }
  }
}

TEST(Telemetry, DenseRunsRecordWakeupsToo) {
  // Regression: run_handlers used to be called with record_wakeups=sparse,
  // so dense-engine runs silently dropped wakeup telemetry — the series'
  // wakeups column was always 0 under force_dense while sparse runs
  // reported real values, breaking dense-vs-sparse comparability. BatchBfs
  // drives real request_wakeup traffic (per-node FIFO backlogs); the two
  // engines must now report identical, nonzero wakeup columns.
  const Graph g = scenario::build_graph(kSpecs[0]);
  const auto sources = apps::default_sources(g, 8);
  const auto series_of = [&](bool force_dense) {
    Telemetry tele(TelemetryMode::kRounds);
    algo::BatchBfs alg(g, sources);
    RunOptions opts;
    opts.force_dense = force_dense;
    opts.telemetry = &tele;
    Network net(g);
    net.run(alg, opts);
    return tele.series();
  };
  const std::vector<RoundSample> dense = series_of(true);
  const std::vector<RoundSample> sparse = series_of(false);
  ASSERT_EQ(dense.size(), sparse.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i].wakeups, sparse[i].wakeups) << i;
    total += dense[i].wakeups;
  }
  EXPECT_GT(total, 0u);
}

TEST(Telemetry, TruncatedRunAccountsUndeliveredSends) {
  // max_rounds truncation mid-flight: the final round's sends are counted
  // in result.messages but sit in the flipped write half, never delivered
  // to any handler. RunResult::undelivered reconciles the books, and the
  // recorder agrees: sum(sent) == messages, sum(delivered) == messages -
  // undelivered, undelivered == the final round's sent.
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[0]);
  const auto check_books = [](const Telemetry& tele, const RunResult& res) {
    std::uint64_t sent = 0, delivered = 0;
    for (const RoundSample& r : tele.series()) {
      sent += r.sent;
      delivered += r.delivered;
    }
    EXPECT_EQ(sent, res.messages);
    EXPECT_EQ(delivered, res.messages - res.undelivered);
    ASSERT_FALSE(tele.series().empty());
    EXPECT_EQ(res.undelivered, tele.series().back().sent);
  };
  RunResult dense_res, sparse_res;
  for (const bool force_dense : {false, true}) {
    SCOPED_TRACE(force_dense);
    Telemetry tele(TelemetryMode::kRounds);
    apps::DistributedBellmanFord alg(g, 0);
    RunOptions opts;
    opts.max_rounds = 6;  // well inside the flood: waves still in flight
    opts.force_dense = force_dense;
    opts.telemetry = &tele;
    Network net(g.graph());
    const RunResult res = net.run(alg, opts);
    EXPECT_FALSE(res.finished);
    EXPECT_EQ(res.rounds, 6u);
    EXPECT_GT(res.undelivered, 0u);
    check_books(tele, res);
    (force_dense ? dense_res : sparse_res) = res;
  }
  EXPECT_EQ(dense_res.undelivered, sparse_res.undelivered);
  // Finished runs keep the same invariant (the final round may or may not
  // leave messages in flight — quiescence-terminated floods leave none).
  Telemetry tele(TelemetryMode::kRounds);
  apps::DistributedBellmanFord alg(g, 0);
  RunOptions opts;
  opts.telemetry = &tele;
  Network net(g.graph());
  const RunResult res = net.run(alg, opts);
  ASSERT_TRUE(res.finished);
  check_books(tele, res);
}

TEST(Telemetry, SweepModesMatchTheEngine) {
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[0]);
  // Dense sweep: every round records kDense; Bellman–Ford is purely
  // message-driven, so its wakeup column is genuinely zero (the dense
  // engine still RECORDS wakeups — see DenseRunsRecordWakeupsToo).
  {
    Telemetry tele(TelemetryMode::kRounds);
    apps::DistributedBellmanFord alg(g, 0);
    RunOptions opts;
    opts.force_dense = true;
    opts.telemetry = &tele;
    Network net(g.graph());
    net.run(alg, opts);
    for (const RoundSample& r : tele.series()) {
      EXPECT_EQ(r.sweep, SweepMode::kDense);
      EXPECT_EQ(r.wakeups, 0u);
      EXPECT_EQ(r.active, g.graph().node_count());
    }
  }
  // Event-driven: round 0 is the dense start() sweep, later rounds use an
  // active mode; active counts stay within [with_input, n].
  {
    Telemetry tele(TelemetryMode::kRounds);
    apps::DistributedBellmanFord alg(g, 0);
    RunOptions opts;
    opts.telemetry = &tele;
    Network net(g.graph());
    net.run(alg, opts);
    const auto& series = tele.series();
    ASSERT_FALSE(series.empty());
    EXPECT_EQ(series[0].sweep, SweepMode::kDense);
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_NE(series[i].sweep, SweepMode::kDense);
      EXPECT_LE(series[i].active, g.graph().node_count());
    }
  }
}

TEST(Telemetry, MultiRunSeriesHasGlobalRoundsAndPerRunDelivery) {
  // One recorder across two engine executions: rounds index the global
  // series, spans tile it, and the delivered derivation resets at the run
  // boundary (a new run's round 0 delivers nothing).
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[3]);
  for (const TelemetryMode mode :
       {TelemetryMode::kRounds, TelemetryMode::kFull}) {
    SCOPED_TRACE(to_string(mode));
    Telemetry tele(mode);
    RunResult first, second;
    {
      apps::DistributedBellmanFord alg(g, 0);
      RunOptions opts;
      opts.telemetry = &tele;
      Network net(g.graph());
      first = net.run(alg, opts);
    }
    {
      apps::DistributedBellmanFord alg(g, 5);
      RunOptions opts;
      opts.telemetry = &tele;
      Network net(g.graph());
      second = net.run(alg, opts);
    }
    const TelemetrySnapshot snap = tele.snapshot();
    EXPECT_EQ(snap.rounds, first.rounds + second.rounds);
    EXPECT_EQ(snap.messages, first.messages + second.messages);
    ASSERT_EQ(snap.spans.size(), 2u);
    EXPECT_EQ(snap.spans[0].first_round, 0u);
    EXPECT_EQ(snap.spans[1].first_round, first.rounds);
    ASSERT_EQ(snap.series.size(), first.rounds + second.rounds);
    for (std::size_t i = 0; i < snap.series.size(); ++i)
      EXPECT_EQ(snap.series[i].round, i);
    const RoundSample& boundary = snap.series[first.rounds];
    EXPECT_EQ(boundary.delivered, 0u);  // new run: nothing in flight
    // The second run's per-run snapshot covers only its own slice.
    ASSERT_TRUE(second.telemetry.has_value());
    EXPECT_EQ(second.telemetry->rounds, second.rounds);
    EXPECT_EQ(second.telemetry->messages, second.messages);
    ASSERT_EQ(second.telemetry->spans.size(), 1u);
    EXPECT_EQ(second.telemetry->spans[0].first_round, first.rounds);
  }
}

/// Sends twice on one arc at round 2 — the engine aborts the run by
/// throwing from do_send, leaving the recorder mid-span.
class DoubleSender : public Algorithm {
 public:
  std::string name() const override { return "double-sender"; }
  void start(Context& ctx) override {
    if (ctx.id() == 0) ctx.send(ctx.arc_begin(), {1, 0, 0});
  }
  void step(Context& ctx) override {
    if (ctx.id() != 0 || ctx.round() < 2) {
      if (!ctx.inbox().empty()) ctx.send(ctx.inbox()[0].via, {1, 0, 0});
      return;
    }
    ctx.send(ctx.arc_begin(), {1, 0, 0});
    ctx.send(ctx.arc_begin(), {2, 0, 0});
  }
  bool done() const override { return false; }
};

TEST(Telemetry, AbortedRunSamplesAreDroppedByTheNextRun) {
  // A run that dies mid-flight never reaches end_run; whatever it staged
  // must not leak into the next run's series (the round = index derivation
  // depends on spans and samples tiling exactly).
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[3]);
  Telemetry tele(TelemetryMode::kRounds);
  {
    DoubleSender bad;
    RunOptions opts;
    opts.telemetry = &tele;
    Network net(g.graph());
    EXPECT_THROW(net.run(bad, opts), std::logic_error);
  }
  apps::DistributedBellmanFord alg(g, 0);
  RunOptions opts;
  opts.telemetry = &tele;
  Network net(g.graph());
  const RunResult res = net.run(alg, opts);
  ASSERT_TRUE(res.finished);
  expect_exact(tele, res, alg.name());
}

TEST(Telemetry, ParallelWorkersRecordIdentically) {
  // n >= 512 crosses the engine's parallel threshold, so the per-worker
  // recording scratch (stepped counters, inbox histograms) is written
  // concurrently — the case the TSAN CI job re-runs. The recorded series
  // and histograms must be bit-identical to the single-worker run.
  const WeightedGraph g = scenario::build_weighted_graph(
      "random_regular:n=600,d=4,seed=9,weights=1..50");
  auto record = [&](std::size_t threads) {
    ThreadPool pool(threads);
    Telemetry tele(TelemetryMode::kFull);
    apps::DistributedBellmanFord alg(g, 0);
    RunOptions opts;
    opts.pool = &pool;
    opts.telemetry = &tele;
    Network net(g.graph());
    const RunResult res = net.run(alg, opts);
    expect_exact(tele, res, alg.name());
    return tele.snapshot();
  };
  const TelemetrySnapshot one = record(1);
  const TelemetrySnapshot eight = record(8);
  EXPECT_EQ(one.rounds, eight.rounds);
  EXPECT_EQ(one.messages, eight.messages);
  ASSERT_EQ(one.series.size(), eight.series.size());
  for (std::size_t i = 0; i < one.series.size(); ++i) {
    EXPECT_EQ(one.series[i].active, eight.series[i].active) << i;
    EXPECT_EQ(one.series[i].with_input, eight.series[i].with_input) << i;
    EXPECT_EQ(one.series[i].sent, eight.series[i].sent) << i;
  }
  EXPECT_EQ(one.inbox_sizes.count, eight.inbox_sizes.count);
  EXPECT_EQ(one.inbox_sizes.p50, eight.inbox_sizes.p50);
  EXPECT_EQ(one.inbox_sizes.max, eight.inbox_sizes.max);
  EXPECT_EQ(one.arc_congestion.max, eight.arc_congestion.max);
}

TEST(Telemetry, MstPhasesAppearAsSpansAndAnnotations) {
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[3]);
  Telemetry tele(TelemetryMode::kFull);
  apps::MstOptions opts;
  opts.telemetry = &tele;
  const apps::MstReport rep = apps::distributed_mst(g, opts);
  ASSERT_TRUE(rep.finished);
  const TelemetrySnapshot snap = tele.snapshot();
  EXPECT_EQ(snap.rounds, rep.rounds);
  EXPECT_EQ(snap.messages, rep.messages);
  std::set<std::string> span_names;
  std::uint64_t span_rounds = 0;
  for (const SpanSample& s : snap.spans) {
    span_names.insert(s.name);
    span_rounds += s.rounds;
  }
  EXPECT_EQ(span_rounds, rep.rounds);  // spans tile the series
  EXPECT_TRUE(span_names.count("mst/announce"));
  EXPECT_TRUE(span_names.count("mst/connect"));
  // One "mst/phase=<p>" annotation per announce sweep (the merging phases
  // plus the final verification sweep rep.phases does not count),
  // deduplicated across fragment leaders, in phase order.
  std::vector<std::string> phases;
  std::set<std::pair<std::uint64_t, std::string>> keys;
  for (const Annotation& a : snap.annotations) {
    EXPECT_TRUE(keys.emplace(a.round, a.label).second) << "duplicate event";
    if (a.label.rfind("mst/phase=", 0) == 0) phases.push_back(a.label);
  }
  ASSERT_EQ(phases.size(), rep.phases + 1u);
  for (std::uint32_t p = 0; p < phases.size(); ++p)
    EXPECT_EQ(phases[p], "mst/phase=" + std::to_string(p + 1));
}

TEST(Telemetry, BatchSsspGenerationsAreAnnotated) {
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[0]);
  Telemetry tele(TelemetryMode::kFull);
  apps::BatchSsspOptions opts;
  opts.telemetry = &tele;
  const auto sources = apps::default_sources(g.graph(), 4);
  const apps::BatchSsspReport rep = apps::batch_sssp(g, sources, opts);
  ASSERT_TRUE(rep.finished);
  std::set<std::string> labels;
  for (const Annotation& a : tele.snapshot().annotations)
    labels.insert(a.label);
  for (std::size_t s = 0; s < sources.size(); ++s)
    EXPECT_TRUE(labels.count("batch-sssp/gen=" + std::to_string(s)))
        << "missing generation " << s;
}

TEST(Telemetry, AnnotationsAreOffOutsideFullMode) {
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[3]);
  Telemetry tele(TelemetryMode::kRounds);
  apps::MstOptions opts;
  opts.telemetry = &tele;
  apps::distributed_mst(g, opts);
  EXPECT_TRUE(tele.snapshot().annotations.empty());
}

TEST(Telemetry, HistogramSummariesAreNearestRank) {
  const HistogramSummary zero = summarize_counts({});
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.max, 0u);

  // 100 values 1..100: nearest-rank percentiles are exact sample values.
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);
  const HistogramSummary h = summarize_counts(v);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.p50, 50u);
  EXPECT_EQ(h.p90, 90u);
  EXPECT_EQ(h.p99, 99u);
  EXPECT_EQ(h.max, 100u);

  // Bucketed form: buckets[v] = multiplicity. 10 zeros, 5 ones, 1 nine.
  const std::vector<std::uint64_t> buckets = {10, 5, 0, 0, 0, 0, 0, 0, 0, 1};
  const HistogramSummary b = summarize_buckets(buckets);
  EXPECT_EQ(b.count, 16u);
  EXPECT_EQ(b.p50, 0u);
  EXPECT_EQ(b.p90, 1u);
  EXPECT_EQ(b.max, 9u);
}

TEST(Telemetry, ModeParsingRoundTrips) {
  for (const TelemetryMode mode :
       {TelemetryMode::kOff, TelemetryMode::kRounds, TelemetryMode::kFull})
    EXPECT_EQ(parse_telemetry_mode(to_string(mode)), mode);
  EXPECT_THROW(parse_telemetry_mode("verbose"), std::invalid_argument);
}

/// Build a composite full-mode snapshot (MST + SSSP on one recorder) —
/// multiple spans, annotations, timers — for the exporter tests.
TelemetrySnapshot composite_snapshot(Telemetry& tele) {
  const WeightedGraph g =
      scenario::build_weighted_graph("dumbbell:s=24,bridges=3,weights=1..9");
  apps::MstOptions mst_opts;
  mst_opts.telemetry = &tele;
  apps::distributed_mst(g, mst_opts);
  apps::SsspOptions sssp_opts;
  sssp_opts.telemetry = &tele;
  apps::distributed_sssp(g, 0, sssp_opts);
  return tele.snapshot();
}

TEST(TelemetryExport, NdjsonLinesAreSelfContainedJson) {
  Telemetry tele(TelemetryMode::kFull);
  const TelemetrySnapshot snap = composite_snapshot(tele);
  std::ostringstream out;
  write_metrics_ndjson(out, snap);
  std::istringstream in(out.str());
  std::string line;
  std::size_t headers = 0, rounds = 0, annotations = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const JsonValue obj = parse_json(line);  // throws on malformed output
    ASSERT_TRUE(obj.is_object());
    const std::string type = obj.str("type");
    if (type == "header") {
      ++headers;
      EXPECT_EQ(obj.str("mode"), "full");
      EXPECT_EQ(static_cast<std::uint64_t>(obj.num("rounds")), snap.rounds);
      EXPECT_EQ(static_cast<std::uint64_t>(obj.num("messages")),
                snap.messages);
      const JsonValue* spans = obj.find("spans");
      ASSERT_NE(spans, nullptr);
      EXPECT_EQ(spans->items.size(), snap.spans.size());
    } else if (type == "round") {
      ++rounds;
    } else {
      EXPECT_EQ(type, "annotation");
      ++annotations;
    }
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_EQ(rounds, snap.series.size());
  EXPECT_EQ(annotations, snap.annotations.size());
}

TEST(TelemetryExport, ChromeTraceIsValidAndCarriesTheStructure) {
  Telemetry tele(TelemetryMode::kFull);
  const TelemetrySnapshot snap = composite_snapshot(tele);
  std::ostringstream out;
  write_chrome_trace(out, snap);
  const JsonValue doc = parse_json(out.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t round_slices = 0, phase_slices = 0, run_slices = 0,
              instants = 0;
  for (const JsonValue& e : events->items) {
    const std::string ph = e.str("ph");
    const std::string name = e.str("name");
    if (ph == "X" && name.rfind("round ", 0) == 0)
      ++round_slices;
    else if (ph == "X" &&
             (name == "step" || name == "delivery" || name == "bookkeep"))
      ++phase_slices;
    else if (ph == "X" && name.rfind("run:", 0) == 0)
      ++run_slices;
    else if (ph == "i")
      ++instants;
  }
  EXPECT_EQ(round_slices, snap.series.size());
  EXPECT_EQ(run_slices, snap.spans.size());
  EXPECT_EQ(instants, snap.annotations.size());
  EXPECT_GT(phase_slices, 0u);  // kFull: timers become nested slices
}

TEST(TelemetryExport, RoundsModeExportsHaveNoTimers) {
  // A kRounds recorder's own snapshot still exports cleanly: rounds carry
  // counters, timers are zero, and the trace stays parseable.
  const WeightedGraph g = scenario::build_weighted_graph(kSpecs[0]);
  Telemetry tele(TelemetryMode::kRounds);
  apps::SsspOptions opts;
  opts.telemetry = &tele;
  apps::distributed_sssp(g, 0, opts);
  const TelemetrySnapshot snap = tele.snapshot();
  ASSERT_EQ(snap.series.size(), snap.rounds);
  std::ostringstream ndjson, trace;
  write_metrics_ndjson(ndjson, snap);
  write_chrome_trace(trace, snap);
  std::istringstream in(ndjson.str());
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue obj = parse_json(line);
    if (obj.str("type") != "round") continue;
    EXPECT_EQ(obj.num("step_ns"), 0.0);
    EXPECT_EQ(obj.num("delivery_ns"), 0.0);
  }
  const JsonValue doc = parse_json(trace.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
}

}  // namespace
}  // namespace fc::congest
