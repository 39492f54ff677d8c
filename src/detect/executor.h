// detect::Executor — the seam through which a host lends threads to a
// detection pass (DESIGN.md §15). A detector (or the shared pair-sweep /
// accomplice-exchange helpers) splits its work into `num_tasks`
// independent, index-addressed tasks and hands them to run(); the
// executor invokes fn(i) for every i in [0, num_tasks) — on any thread,
// in any order, possibly concurrently — and returns only once all tasks
// completed. Determinism is therefore the CALLER's job: each task must
// write only task-local output (e.g. a per-range sub-report) which the
// caller merges in task-index order after run() returns.
//
// Hosts provide the labor through ThreadPoolExecutor below: the service's
// global epoch owns one sized at ServiceConfig::epoch_scan_threads (its
// coordinator blocks while the pool scans), and benches and tests build
// their own. A null executor on the snapshot means serial (the caller's
// own thread runs every task in index order). Since
// any executor yields the same merged output as the serial path, recovery
// replay may run parallel or serial and still reproduce every byte.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace p2prep::detect {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs fn(0) .. fn(num_tasks - 1), each exactly once, and returns when
  /// every call finished. A task that throws: the first exception is
  /// rethrown from run() after all tasks completed or were abandoned.
  virtual void run(std::size_t num_tasks,
                   const std::function<void(std::size_t)>& fn) = 0;

  /// Hint: how many tasks can make progress at once (>= 1). Callers use
  /// it to pick a task count; correctness never depends on it.
  [[nodiscard]] virtual std::size_t concurrency() const noexcept {
    return 1;
  }
};

/// Lends a plain util::ThreadPool to the detect layer.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `threads` as for util::ThreadPool (0 = hardware concurrency).
  explicit ThreadPoolExecutor(std::size_t threads = 0) : pool_(threads) {}

  void run(std::size_t num_tasks,
           const std::function<void(std::size_t)>& fn) override {
    pool_.parallel_for(0, num_tasks, fn);
  }
  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return pool_.size();
  }

 private:
  util::ThreadPool pool_;
};

/// Runs the tasks through `exec` when non-null, else serially in index
/// order on the calling thread.
inline void run_tasks(Executor* exec, std::size_t num_tasks,
                      const std::function<void(std::size_t)>& fn) {
  if (exec != nullptr && num_tasks > 1) {
    exec->run(num_tasks, fn);
    return;
  }
  for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
}

}  // namespace p2prep::detect
