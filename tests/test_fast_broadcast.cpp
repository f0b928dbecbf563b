#include "core/fast_broadcast.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "congest/telemetry.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "lb/bit_meter.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fc::core {
namespace {

std::vector<algo::PlacedMessage> random_messages(const Graph& g,
                                                 std::uint64_t k, Rng& rng) {
  std::vector<algo::PlacedMessage> msgs;
  msgs.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(g.node_count())), i, rng()});
  return msgs;
}

TEST(FastBroadcast, CompletesOnRandomRegular) {
  Rng rng(1);
  const Graph g = gen::random_regular(128, 32, rng);
  const auto msgs = random_messages(g, 256, rng);
  const auto report = run_fast_broadcast(g, 32, msgs);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_EQ(report.k, 256u);
  EXPECT_GE(report.parts, 2u);
}

TEST(FastBroadcast, CompletesOnHypercube) {
  Rng rng(2);
  const Graph g = gen::hypercube(8);  // n=256, λ=8
  const auto msgs = random_messages(g, 128, rng);
  FastBroadcastOptions opts;
  opts.C = 1.0;
  const auto report = run_fast_broadcast(g, 8, msgs, opts);
  EXPECT_TRUE(report.complete) << report.str();
}

TEST(FastBroadcast, RoundsWithinTheorem1Envelope) {
  // Theorem 1: O((n log n)/δ + (k log n)/λ) rounds. Check measured rounds
  // against the prediction with a generous constant.
  Rng rng(3);
  const Graph g = gen::random_regular(256, 64, rng);
  for (std::uint64_t k : {256ull, 1024ull}) {
    const auto msgs = random_messages(g, k, rng);
    FastBroadcastOptions opts;
    const auto report = run_fast_broadcast(g, 64, msgs, opts);
    ASSERT_TRUE(report.complete);
    const double predicted = theorem1_prediction(256, 64, 64, k);
    EXPECT_LE(static_cast<double>(report.total_rounds), 40.0 * predicted)
        << report.str();
  }
}

TEST(FastBroadcast, NeverBeatsUniversalLowerBound) {
  // Theorem 3: any algorithm needs Omega(k/λ) rounds.
  Rng rng(4);
  const Graph g = gen::random_regular(128, 16, rng);
  for (std::uint64_t k : {64ull, 512ull}) {
    const auto msgs = random_messages(g, k, rng);
    const auto report = run_fast_broadcast(g, 16, msgs);
    ASSERT_TRUE(report.complete);
    EXPECT_GE(static_cast<double>(report.total_rounds),
              theorem3_lower_bound(k, 16));
  }
}

TEST(FastBroadcast, BeatsTextbookWhenKLargeAndLambdaHigh) {
  // The headline claim: for k = Ω(n) on a high-connectivity graph, the
  // decomposition broadcast beats the O(D + k) single-tree pipeline.
  Rng rng(5);
  const Graph g = gen::random_regular(256, 64, rng);
  const auto msgs = random_messages(g, 2048, rng);
  FastBroadcastOptions opts;
  opts.C = 1.5;
  const auto fast = run_fast_broadcast(g, 64, msgs, opts);
  const auto slow = run_textbook_broadcast(g, msgs, opts);
  ASSERT_TRUE(fast.complete);
  ASSERT_TRUE(slow.complete);
  EXPECT_LT(fast.total_rounds, slow.total_rounds)
      << "fast=" << fast.str() << "\nslow=" << slow.str();
}

TEST(TextbookBroadcast, MatchesLemma1Bound) {
  Rng rng(6);
  const Graph g = gen::circulant(64, 2);
  const auto msgs = random_messages(g, 100, rng);
  const auto report = run_textbook_broadcast(g, msgs);
  ASSERT_TRUE(report.complete);
  const auto d = diameter_exact(g);
  EXPECT_LE(report.broadcast_rounds, 2 * (static_cast<std::uint64_t>(d) + 100) + 8);
  EXPECT_LE(report.max_edge_congestion, 2u * 100 + 2);
}

TEST(FastBroadcast, LambdaOneDegradesToTextbook) {
  Rng rng(7);
  const Graph g = gen::circulant(40, 2);
  const auto msgs = random_messages(g, 30, rng);
  const auto report = run_fast_broadcast(g, 1, msgs);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.parts, 1u);
}

TEST(FastBroadcast, EmptyMessageSet) {
  const Graph g = gen::cycle(8);
  const auto report = run_fast_broadcast(g, 2, {});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.k, 0u);
}

TEST(FastBroadcast, MessagesConcentratedAtOneNode) {
  Rng rng(8);
  const Graph g = gen::random_regular(64, 16, rng);
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 200; ++i) msgs.push_back({7, i, i * 3});
  const auto report = run_fast_broadcast(g, 16, msgs);
  EXPECT_TRUE(report.complete);
}

TEST(FastBroadcast, DisconnectedGraphThrows) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(run_fast_broadcast(g, 1, {}), std::invalid_argument);
}

TEST(FastBroadcast, ZeroLambdaThrows) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(run_fast_broadcast(g, 0, {}), std::invalid_argument);
}

/// The three entry points, for checks that must hold for each of them.
std::vector<FastBroadcastReport> all_entry_points(
    const Graph& g, std::uint32_t lambda,
    std::span<const algo::PlacedMessage> msgs,
    const FastBroadcastOptions& opts) {
  return {run_fast_broadcast(g, lambda, msgs, opts),
          run_fast_broadcast_oblivious(g, msgs, opts),
          run_textbook_broadcast(g, msgs, opts)};
}

TEST(FastBroadcast, FaultPlansAreRejectedBeforeAnyRun) {
  const Graph g = gen::cycle(8);
  congest::FaultPlan plan;
  plan.drop_edge(0, 0);
  FastBroadcastOptions opts;
  opts.faults = &plan;
  EXPECT_THROW(run_fast_broadcast(g, 2, {}, opts), std::invalid_argument);
  EXPECT_THROW(run_fast_broadcast_oblivious(g, {}, opts),
               std::invalid_argument);
  EXPECT_THROW(run_textbook_broadcast(g, {}, opts), std::invalid_argument);
  const congest::FaultPlan none;  // an empty plan is no plan
  opts.faults = &none;
  for (const auto& r : all_entry_points(g, 2, {}, opts))
    EXPECT_TRUE(r.complete) << r.str();
}

TEST(FastBroadcast, RejectsAMessageOriginOutsideTheGraph) {
  // The Lemma 3 numbering indexes per-node counters by origin, so a bad
  // origin must be refused before any engine run of any entry point.
  Rng rng(4);
  const Graph g = gen::random_regular(64, 8, rng);
  const std::vector<algo::PlacedMessage> msgs{{3, 0, 11}, {64, 1, 12}};
  EXPECT_THROW(run_fast_broadcast(g, 8, msgs), std::invalid_argument);
  EXPECT_THROW(run_fast_broadcast_oblivious(g, msgs), std::invalid_argument);
  EXPECT_THROW(run_textbook_broadcast(g, msgs), std::invalid_argument);
}

TEST(FastBroadcast, CancelledTokenStopsEveryEntryPoint) {
  Rng rng(9);
  const Graph g = gen::random_regular(64, 16, rng);
  const auto msgs = random_messages(g, 64, rng);
  congest::CancelToken token;
  token.cancel();
  FastBroadcastOptions opts;
  opts.cancel = &token;
  for (const bool elect : {true, false}) {
    SCOPED_TRACE(elect ? "leader election first" : "setup BFS first");
    opts.elect_leader = elect;
    // A setup BFS cut at round 0 reaches only its root: that is a
    // cancellation, not a disconnected graph.
    for (const auto& r : all_entry_points(g, 16, msgs, opts)) {
      EXPECT_TRUE(r.cancelled) << r.str();
      EXPECT_FALSE(r.complete);
      EXPECT_EQ(r.total_rounds, 0u);
      EXPECT_EQ(r.retries, 0u);
    }
  }
}

TEST(FastBroadcast, CancellationMidRunNeverLooksLikeFailure) {
  // Whatever phase the flag lands in — setup, part BFS, a Lemma 1
  // pipeline, an oblivious probe — the broadcast either completes or
  // reports `cancelled`: no retry storm, no λ-halving to a throw.
  Rng rng(10);
  const Graph g = gen::random_regular(256, 32, rng);
  const auto msgs = random_messages(g, 1024, rng);
  const auto uncut = all_entry_points(g, 32, msgs, {});
  for (const int delay_us : {0, 100, 400, 1600, 6400}) {
    SCOPED_TRACE(delay_us);
    congest::CancelToken token;
    FastBroadcastOptions opts;
    opts.cancel = &token;
    std::thread killer([&token, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.cancel();
    });
    std::vector<FastBroadcastReport> cut;
    EXPECT_NO_THROW(cut = all_entry_points(g, 32, msgs, opts));
    killer.join();
    for (std::size_t i = 0; i < cut.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_NE(cut[i].cancelled, cut[i].complete) << cut[i].str();
      EXPECT_LE(cut[i].total_rounds, uncut[i].total_rounds);
      if (cut[i].complete) EXPECT_EQ(cut[i].str(), uncut[i].str());
    }
  }
}

TEST(FastBroadcastOblivious, FindsWorkingLambdaOnDumbbell) {
  // δ = 31 but λ = 1: the first guess λ̃ = 31 yields 3 parts, and since the
  // single bridge lives in exactly one part the other two cannot span. The
  // search must halve until the decomposition collapses to one part.
  Rng rng(9);
  const Graph g = gen::dumbbell(32, 1);
  const auto msgs = random_messages(g, 64, rng);
  const auto report = run_fast_broadcast_oblivious(g, msgs);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_GE(report.search_iterations, 2u);
  EXPECT_EQ(report.parts, 1u);
  EXPECT_LE(report.lambda_used, 15u);
  EXPECT_GT(report.search_rounds, 0u);
}

TEST(FastBroadcastOblivious, TelemetryRecorderSeesTheLemma4Runs) {
  // The caller's recorder reaches every engine run of the broadcast, the
  // Lemma 4 δ-learning included: after its BFS come the two convergecasts
  // (min degree, node count), and nothing else runs a convergecast.
  Rng rng(11);
  const Graph g = gen::random_regular(64, 16, rng);
  const auto msgs = random_messages(g, 64, rng);
  congest::Telemetry tele(congest::TelemetryMode::kRounds);
  FastBroadcastOptions opts;
  opts.telemetry = &tele;
  const auto report = run_fast_broadcast_oblivious(g, msgs, opts);
  ASSERT_TRUE(report.complete) << report.str();
  std::size_t convergecasts = 0;
  for (const auto& span : tele.spans())
    if (span.name == "convergecast") {
      ++convergecasts;
      EXPECT_TRUE(span.finished);
    }
  EXPECT_EQ(convergecasts, 2u);
  // Recording changes nothing.
  EXPECT_EQ(report.str(), run_fast_broadcast_oblivious(g, msgs).str());
}

TEST(FastBroadcastOblivious, FastPathOnRegularGraphs) {
  // When λ = δ the first guess usually validates.
  Rng rng(10);
  const Graph g = gen::random_regular(128, 32, rng);
  const auto msgs = random_messages(g, 128, rng);
  const auto report = run_fast_broadcast_oblivious(g, msgs);
  EXPECT_TRUE(report.complete);
  EXPECT_LE(report.search_iterations, 3u);
}

TEST(FastBroadcast, CutTrafficRespectsInformationBound) {
  // Measure actual bits across a minimum cut and compare with the Theorem 3
  // requirement: a complete broadcast must move >= k/2 messages worth of
  // payload across the cut... our meter checks the run did cross the cut.
  Rng rng(11);
  const Graph g = gen::dumbbell(16, 3);
  const std::uint64_t k = 64;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(16)), i, rng()});  // left side
  const auto report = run_fast_broadcast(g, 3, msgs);
  ASSERT_TRUE(report.complete);
  // All k messages originated on the left clique; at least k messages must
  // have crossed the 3-edge bridge cut, so rounds >= k/3.
  EXPECT_GE(static_cast<double>(report.total_rounds),
            theorem3_lower_bound(k, 3));
}

/// Golden reports: every FastBroadcastReport field of the three entry
/// points, pinned from the implementation that re-partitioned the
/// validated probe and re-ran every BFS on a fresh engine. Sharing engines,
/// unions and BFS runs between phases must not move one number. The cases
/// cover one part (the dumbbell's and the ring's fast runs), several parts
/// (the d=32 graph), retries (the d=16 graph with λ overestimated at 40)
/// and a λ-halving search (the oblivious runs on the dumbbell and the ring
/// of cliques). Every pool reproduces the same table.
struct GoldenCase {
  const char* spec;
  const char* entry;    // "fast", "oblivious" or "textbook"
  std::uint32_t lambda;  // the λ handed to the fast entry point
  FastBroadcastReport want;
};

const GoldenCase kGolden[] = {
    {"dumbbell:s=64,bridges=2", "fast", 2,
     {96, 1, 2, 17, 4, 100, 0, 121, 52479, 149, true, false, 0, 0}},
    {"dumbbell:s=64,bridges=2", "oblivious", 2,
     {96, 1, 15, 35, 4, 100, 35, 174, 69827, 149, true, false, 0, 3}},
    {"dumbbell:s=64,bridges=2", "textbook", 2,
     {96, 1, 1, 17, 4, 100, 0, 121, 52479, 149, true, false, 0, 0}},
    {"random_regular:n=256,d=32,seed=3", "fast", 64,
     {96, 5, 64, 17, 6, 27, 0, 50, 63444, 29, true, false, 0, 0}},
    {"random_regular:n=256,d=32,seed=3", "oblivious", 64,
     {96, 2, 32, 35, 4, 52, 10, 101, 71794, 57, true, false, 0, 1}},
    {"random_regular:n=256,d=32,seed=3", "textbook", 64,
     {96, 1, 1, 17, 4, 100, 0, 121, 64340, 104, true, false, 0, 0}},
    {"random_regular:n=256,d=16,seed=2", "fast", 40,
     {96, 3, 40, 17, 7, 39, 26, 89, 55521, 45, true, false, 3, 0}},
    {"random_regular:n=256,d=16,seed=2", "oblivious", 40,
     {96, 1, 16, 35, 4, 100, 10, 149, 49754, 108, true, false, 0, 1}},
    {"random_regular:n=256,d=16,seed=2", "textbook", 40,
     {96, 1, 1, 17, 4, 100, 0, 121, 45913, 108, true, false, 0, 0}},
    {"ring_of_cliques:groups=6,width=48", "fast", 2,
     {96, 1, 2, 29, 7, 103, 0, 139, 115676, 149, true, false, 0, 0}},
    {"ring_of_cliques:groups=6,width=48", "oblivious", 2,
     {96, 1, 11, 62, 7, 103, 59, 231, 136417, 149, true, false, 0, 3}},
    {"ring_of_cliques:groups=6,width=48", "textbook", 2,
     {96, 1, 1, 29, 7, 103, 0, 139, 115676, 149, true, false, 0, 0}},
};

void expect_same_report(const FastBroadcastReport& got,
                        const FastBroadcastReport& want) {
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.parts, want.parts);
  EXPECT_EQ(got.lambda_used, want.lambda_used);
  EXPECT_EQ(got.setup_rounds, want.setup_rounds);
  EXPECT_EQ(got.part_bfs_rounds, want.part_bfs_rounds);
  EXPECT_EQ(got.broadcast_rounds, want.broadcast_rounds);
  EXPECT_EQ(got.search_rounds, want.search_rounds);
  EXPECT_EQ(got.total_rounds, want.total_rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.max_edge_congestion, want.max_edge_congestion);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.cancelled, want.cancelled);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.search_iterations, want.search_iterations);
}

TEST(FastBroadcastGolden, EveryFieldAtPools1_2_8) {
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    FastBroadcastOptions opts;
    opts.pool = &pool;
    for (const GoldenCase& c : kGolden) {
      SCOPED_TRACE(std::string(c.spec) + " " + c.entry + " pool " +
                   std::to_string(threads));
      const Graph g = scenario::build_graph(std::string(c.spec));
      Rng rng(19);
      const auto msgs = random_messages(g, 96, rng);
      const std::string entry = c.entry;
      const FastBroadcastReport got =
          entry == "fast"        ? run_fast_broadcast(g, c.lambda, msgs, opts)
          : entry == "oblivious" ? run_fast_broadcast_oblivious(g, msgs, opts)
                                 : run_textbook_broadcast(g, msgs, opts);
      expect_same_report(got, c.want);
    }
  }
}

TEST(Predictions, Formulas) {
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(100, 10), 10.0);
  EXPECT_EQ(theorem3_lower_bound(5, 0), 0.0);
  EXPECT_GT(theorem1_prediction(256, 16, 16, 1024),
            theorem1_prediction(256, 32, 32, 1024));
  EXPECT_EQ(theorem1_prediction(1, 0, 0, 5), 0.0);
}

class FastBroadcastSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint32_t, std::uint64_t>> {};

TEST_P(FastBroadcastSweep, CompleteAcrossParameterGrid) {
  auto [n, d, k] = GetParam();
  Rng rng(mix64(n, d, k));
  const Graph g = gen::random_regular(n, d, rng);
  const auto msgs = random_messages(g, k, rng);
  FastBroadcastOptions opts;
  opts.C = 1.5;
  const auto report = run_fast_broadcast(g, d, msgs, opts);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_GE(static_cast<double>(report.total_rounds),
            theorem3_lower_bound(k, d));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastBroadcastSweep,
    ::testing::Values(std::tuple<NodeId, std::uint32_t, std::uint64_t>{64, 16, 64},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{128, 16, 512},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{128, 48, 128},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{256, 32, 1024},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{96, 24, 7}));

}  // namespace
}  // namespace fc::core
