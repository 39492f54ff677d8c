// detect::Executor contract: every task runs exactly once, run() returns
// only after all of them, a throwing task surfaces from run() and leaves
// a long-lived executor (the service keeps one across epochs) usable, and
// run_tasks() without an executor is serial in index order on the caller.
#include "detect/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2prep::detect {
namespace {

TEST(ExecutorTest, ThreadPoolExecutorRunsEachTaskExactlyOnce) {
  ThreadPoolExecutor exec(3);
  EXPECT_EQ(exec.concurrency(), 3u);
  for (std::size_t n : {0u, 1u, 2u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    exec.run(n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " task " << i;
  }
}

TEST(ExecutorTest, ThreadPoolExecutorRethrowsAndStaysUsable) {
  ThreadPoolExecutor exec(2);
  EXPECT_THROW(exec.run(64,
                        [](std::size_t i) {
                          if (i == 13) throw std::runtime_error("task boom");
                        }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(64);
  exec.run(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ExecutorTest, RunTasksWithoutExecutorIsSerialInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  run_tasks(nullptr, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, RunTasksKeepsASingleTaskOnTheCaller) {
  ThreadPoolExecutor exec(2);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  run_tasks(&exec, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);

  std::vector<std::atomic<int>> hits(40);
  run_tasks(&exec, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

}  // namespace
}  // namespace p2prep::detect
