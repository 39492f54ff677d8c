// Annotated synchronization primitives: thin wrappers over std::mutex /
// std::condition_variable carrying Clang Thread Safety capability
// attributes (util/thread_annotations.h), so lock discipline over
// P2PREP_GUARDED_BY data is checked at compile time under
// -Wthread-safety. Zero overhead relative to the standard types.
//
// Conventions used across the codebase:
//  * Every mutex-protected data member is declared P2PREP_GUARDED_BY(mu_).
//  * Condition waits are written as explicit while-loops around
//    CondVar::wait(mu) instead of the predicate overloads of
//    std::condition_variable — the analysis cannot see through a lambda,
//    so predicates reading guarded state would defeat the checking.
//  * notify_one/notify_all are called after the MutexLock scope closes.
//  * Components that ever hold two mutexes declare the order with
//    P2PREP_ACQUIRED_AFTER / P2PREP_ACQUIRED_BEFORE on the members (see
//    ReputationService's hierarchy in service/service.h); under the Clang
//    gate (-Wthread-safety-beta) an inverted acquisition then fails to
//    compile (canary: tests/static_analysis/lock_order_fail.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace p2prep::util {

/// std::mutex with capability annotations. Non-recursive, non-movable.
class P2PREP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() P2PREP_ACQUIRE() { mu_.lock(); }
  void unlock() P2PREP_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() P2PREP_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex (scoped capability). Supports early release via
/// unlock(); the destructor only unlocks when still held.
class P2PREP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) P2PREP_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() P2PREP_RELEASE() {
    if (mu_ != nullptr) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex before the end of scope (at most once).
  void unlock() P2PREP_RELEASE() {
    mu_->unlock();
    mu_ = nullptr;
  }

 private:
  Mutex* mu_;
};

/// Condition variable whose waits take an annotated Mutex the caller
/// already holds. Spurious wakeups happen; always wait in a while-loop
/// re-checking the guarded condition.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning — to the analysis (and the caller) the lock is held
  /// throughout.
  void wait(Mutex& mu) P2PREP_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's MutexLock
  }

  /// wait() with a deadline: returns false once `deadline` has passed
  /// (the lock is reacquired either way), true on a notify or a spurious
  /// wakeup.
  bool wait_until(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      P2PREP_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const bool notified = cv_.wait_until(native, deadline) ==
                          std::cv_status::no_timeout;
    native.release();
    return notified;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace p2prep::util
