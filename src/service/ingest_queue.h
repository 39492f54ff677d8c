// Bounded MPMC ingest queue with backpressure, the front door of the
// sharded reputation service (DESIGN.md "Service layer").
//
// Producers are client threads calling ReputationService::ingest_batch();
// the single consumer per queue is that shard's worker thread (the
// template is nevertheless MPMC-safe — tests exercise multi-consumer
// draining). A full
// queue never discards an element: push() waits for space (end-to-end
// backpressure) and try_push() fails so the caller can shed.
//
// push_forced() bypasses the capacity; the service uses it for epoch
// markers and resize fences, which must reach every shard exactly once or
// the epoch barrier would hang.
//
// Wake-ups are coalesced: a producer does not wake a consumer per element.
// It notifies only when a consumer is parked idle, when the queue reaches
// the wake threshold, for a forced element, and on close. A consumer that
// finds the queue empty waits at most kWakeWindow for elements that
// arrive without a notify, then parks untimed, so an idle queue never
// polls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::service {

template <typename T>
class IngestQueue {
 public:
  /// Queue length at which a push wakes a consumer that is not parked
  /// idle (capped at the capacity, so a small queue never fills up
  /// unnoticed). Below it, elements wait for the consumer's window.
  static constexpr std::size_t kWakeThreshold = 64;
  /// Longest a consumer that found the queue empty waits for elements
  /// pushed without a notify before it parks untimed. Bounds the pickup
  /// delay of an element pushed below the threshold.
  static constexpr std::chrono::milliseconds kWakeWindow{1};

  /// A `capacity` of 0 is taken as 1.
  explicit IngestQueue(std::size_t capacity)
      : capacity_(capacity ? capacity : 1),
        wake_threshold_(std::min(kWakeThreshold, capacity_)) {}

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues `value`, waiting until space is available; returns false
  /// only when the queue was closed.
  bool push(T value) {
    bool wake = false;
    {
      util::MutexLock lock(mu_);
      while (!closed_ && items_.size() >= capacity_) not_full_.wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(value));
      wake = wake_due();
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Outcome of a non-blocking try_push().
  enum class TryPush { kOk, kFull, kClosed };

  /// Non-blocking push: a full queue fails with kFull instead of waiting.
  /// The RPC front-end sheds on kFull rather than stalling its event loop
  /// (rpc/server.h overload control).
  TryPush try_push(T value) {
    bool wake = false;
    {
      util::MutexLock lock(mu_);
      if (closed_) return TryPush::kClosed;
      if (items_.size() >= capacity_) return TryPush::kFull;
      items_.push_back(std::move(value));
      wake = wake_due();
    }
    if (wake) not_empty_.notify_one();
    return TryPush::kOk;
  }

  /// Enqueues regardless of capacity and wakes a consumer at once; only
  /// fails when closed. Never blocks.
  bool push_forced(T value) {
    {
      util::MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and
  /// drained; nullopt means no element will ever come again.
  std::optional<T> pop() {
    std::optional<T> value;
    {
      util::MutexLock lock(mu_);
      if (!closed_ && items_.empty()) {
        const auto deadline = std::chrono::steady_clock::now() + kWakeWindow;
        while (!closed_ && items_.empty()) {
          if (!not_empty_.wait_until(mu_, deadline)) break;
        }
        while (!closed_ && items_.empty()) {
          ++parked_;
          not_empty_.wait(mu_);
          --parked_;
        }
      }
      if (items_.empty()) return std::nullopt;
      value.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop: nullopt when the queue is empty right now.
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      util::MutexLock lock(mu_);
      if (items_.empty()) return std::nullopt;
      value.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Stops accepting pushes; queued elements remain poppable (drain).
  void close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Crash path: discards everything queued, then closes.
  void purge_and_close() {
    {
      util::MutexLock lock(mu_);
      items_.clear();
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    util::MutexLock lock(mu_);
    return items_.size();
  }
  [[nodiscard]] bool closed() const {
    util::MutexLock lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Consumers parked in the untimed wait, past their wake window.
  [[nodiscard]] std::size_t parked_consumers() const {
    util::MutexLock lock(mu_);
    return parked_;
  }

 private:
  /// Whether the element just pushed must wake a consumer.
  [[nodiscard]] bool wake_due() const P2PREP_REQUIRES(mu_) {
    return parked_ > 0 || items_.size() >= wake_threshold_;
  }

  const std::size_t capacity_;
  const std::size_t wake_threshold_;

  mutable util::Mutex mu_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  std::deque<T> items_ P2PREP_GUARDED_BY(mu_);
  bool closed_ P2PREP_GUARDED_BY(mu_) = false;
  /// Consumers in the untimed wait of pop(), past their wake window.
  std::size_t parked_ P2PREP_GUARDED_BY(mu_) = 0;
};

}  // namespace p2prep::service
