#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2prep::util {
namespace {

TEST(ThreadPoolTest, DefaultUsesAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ExplicitThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(5, 5, [&counter](std::size_t) { ++counter; });
  pool.parallel_for(7, 3, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversRange) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<int> data(kN, 0);
  pool.parallel_for_chunked(0, kN, [&data](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) data[i] = 1;
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0),
            static_cast<int>(kN));
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(3, 8, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(hits[i].load(), (i >= 3 && i < 8) ? 1 : 0);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for_chunked(0, kN, [&sum](std::size_t lo, std::size_t hi) {
    std::int64_t local = 0;
    for (std::size_t i = lo; i < hi; ++i)
      local += static_cast<std::int64_t>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&hits](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitExceptionPropagatesThroughWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t i) {
                                   if (i == 500) throw std::logic_error("mid");
                                 }),
               std::logic_error);
}

TEST(ThreadPoolTest, PoolRemainsUsableAfterException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error slot is cleared: a clean batch completes normally.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 100, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
  pool.wait_idle();  // no stale exception left behind
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsReported) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] {
      ++ran;
      throw std::runtime_error("each task throws");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  pool.wait_idle();  // later exceptions were dropped, not queued
}

TEST(ThreadPoolTest, ConcurrentSubmissionFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(8);
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 500; ++i) pool.submit([&counter] { ++counter; });
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 8 * 500);
}

TEST(ThreadPoolTest, DestructionWithPendingTasksCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace p2prep::util
