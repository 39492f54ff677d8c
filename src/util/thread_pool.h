// Minimal work-stealing-free thread pool plus a parallel_for helper.
//
// The pool runs the library's two CPU-heavy loops: the EigenTrust power
// iteration (dense mat-vec per iteration) and, lent through
// detect::ThreadPoolExecutor, the detection passes of a global epoch.
// Both decompose into independent index ranges, so a simple chunked
// parallel_for with a completion latch is all that is needed — no
// futures, no task graph.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; it may run on any worker at any later point.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. If any task
  /// threw, rethrows the first captured exception (and clears it, leaving
  /// the pool usable); further exceptions from the same batch are dropped.
  void wait_idle();

  /// Runs fn(i) for i in [begin, end), split into `size()*4` chunks and
  /// executed on the pool. Blocks until complete. fn must be safe to call
  /// concurrently for distinct i. Rethrows the first exception any chunk
  /// threw (after all chunks finished); remaining indices of a throwing
  /// chunk are skipped.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(lo, hi) receives contiguous ranges. Lower overhead
  /// when per-index work is tiny.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  std::queue<std::function<void()>> tasks_ P2PREP_GUARDED_BY(mu_);
  CondVar task_ready_;
  CondVar idle_;
  std::size_t in_flight_ P2PREP_GUARDED_BY(mu_) = 0;
  bool stopping_ P2PREP_GUARDED_BY(mu_) = false;
  /// First exception thrown by any task.
  std::exception_ptr first_error_ P2PREP_GUARDED_BY(mu_);
};

}  // namespace p2prep::util
