#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fc {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadedPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(57, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 57);
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::vector<std::uint8_t> seen(1000, 0);
  std::atomic<int> chunks{0};
  pool.parallel_chunks(1000, [&](std::size_t, std::size_t b, std::size_t e) {
    ++chunks;
    for (std::size_t i = b; i < e; ++i) {
      EXPECT_EQ(seen[i], 0);  // disjointness
      seen[i] = 1;
    }
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 1000);
  EXPECT_LE(chunks.load(), 4);
}

TEST(ThreadPool, ChunkBoundariesAreDeterministic) {
  // Static chunking: worker w always gets the same [begin, end) for fixed n.
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> first(4, {0, 0}), second(4, {0, 0});
  pool.parallel_chunks(103, [&](std::size_t w, std::size_t b, std::size_t e) {
    first[w] = {b, e};
  });
  pool.parallel_chunks(103, [&](std::size_t w, std::size_t b, std::size_t e) {
    second[w] = {b, e};
  });
  EXPECT_EQ(first, second);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, HelperChunkExceptionReachesTheCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> finished{0};
  const auto throw_on_helper = [&](std::size_t w, std::size_t, std::size_t) {
    if (w == 3) {
      EXPECT_NE(std::this_thread::get_id(), caller);
      throw std::runtime_error("helper chunk");
    }
    ++finished;
  };
  EXPECT_THROW(pool.parallel_chunks(4, throw_on_helper), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  // The pool stays usable, and the failed job's exception is not replayed.
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CallerChunkExceptionWaitsForEveryOtherChunk) {
  // The caller runs chunk 0. If it throws, parallel_chunks must not return
  // while the helpers still run `fn`, which lives in this frame.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> finished{0};
  const auto throw_on_caller = [&](std::size_t w, std::size_t, std::size_t) {
    if (w == 0) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      throw std::runtime_error("caller chunk");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++finished;
  };
  EXPECT_THROW(pool.parallel_chunks(4, throw_on_caller), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  std::atomic<int> count{0};
  pool.parallel_for(57, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 57);
}

TEST(ThreadPool, NMuchLargerThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(100'000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 100'000ull * 99'999 / 2);
}

}  // namespace
}  // namespace fc
