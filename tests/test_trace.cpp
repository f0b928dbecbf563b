// Execution traces: a plain Telemetry recorder attached through
// RunOptions::telemetry records the per-round delivery curve of any
// algorithm without touching it. The recorded totals are checked against
// the Network's own metering (they must agree exactly), and the curve
// against the shapes the algorithms are known to produce.

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/bfs.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "congest/network.hpp"
#include "congest/telemetry.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc::congest {
namespace {

std::uint64_t total_delivered(const Telemetry& rec) {
  std::uint64_t total = 0;
  for (const RoundSample& s : rec.series()) total += s.delivered;
  return total;
}

TEST(Trace, TotalsMatchNetworkMetering) {
  Rng rng(1);
  const Graph g = gen::random_regular(64, 6, rng);
  algo::DistributedBfs bfs(g, 0);
  Telemetry rec;
  Network net(g);
  const auto res = net.run(bfs, {.telemetry = &rec});
  EXPECT_TRUE(res.finished);
  // Every delivered message was sent exactly once; messages sent in the
  // final executed round are counted as sent but never reach a handler
  // (the run stops), so the receive-side total is at most the send count
  // and misses at most one round's worth of traffic — exactly
  // RunResult::undelivered.
  const std::uint64_t delivered = total_delivered(rec);
  EXPECT_LE(delivered, res.messages);
  EXPECT_GE(delivered, res.messages * 9 / 10);
  EXPECT_EQ(delivered, res.messages - res.undelivered);
  EXPECT_EQ(rec.series().size(), res.rounds);
}

TEST(Trace, RoundZeroHasNoDeliveries) {
  const Graph g = gen::cycle(10);
  algo::DistributedBfs bfs(g, 0);
  Telemetry rec;
  Network net(g);
  net.run(bfs, {.telemetry = &rec});
  ASSERT_FALSE(rec.series().empty());
  EXPECT_EQ(rec.series()[0].delivered, 0u);
}

TEST(Trace, BfsWaveShape) {
  // The BFS flood's delivered-messages curve rises then dies out.
  const Graph g = gen::grid(6, 6);
  algo::DistributedBfs bfs(g, 0);
  Telemetry rec;
  Network net(g);
  net.run(bfs, {.telemetry = &rec});
  const auto& series = rec.series();
  const auto peak = std::max_element(
      series.begin(), series.end(), [](const auto& a, const auto& b) {
        return a.delivered < b.delivered;
      });
  ASSERT_NE(peak, series.end());
  EXPECT_GT(peak->delivered, 0u);
  EXPECT_GT(peak->round, 0u);
  // The peak lands strictly inside the run, not at its very end: the wave
  // rises and dies out.
  EXPECT_LT(peak->round + 1, series.size());
}

TEST(Trace, PipelinedBroadcastSustainsLoad) {
  const Graph g = gen::cycle(16);
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 40; ++i) msgs.push_back({0, i, i});
  algo::PipelineBroadcast bc(g, tree, msgs);
  Telemetry rec;
  Network net(g);
  const auto res = net.run(bc, {.telemetry = &rec});
  EXPECT_TRUE(res.finished);
  // Steady state: with the root feeding one message per round into two
  // children, many consecutive rounds deliver >= 2 messages.
  std::size_t busy = 0;
  for (const RoundSample& s : rec.series())
    if (s.delivered >= 2) ++busy;
  EXPECT_GE(busy, 30u);
}

}  // namespace
}  // namespace fc::congest
