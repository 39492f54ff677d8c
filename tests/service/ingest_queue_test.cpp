#include "service/ingest_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace p2prep::service {
namespace {

TEST(IngestQueueTest, FifoOrderPreserved) {
  IngestQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(IngestQueueTest, BlockPolicyAppliesBackpressure) {
  IngestQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks until a slot frees up
    third_pushed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.size(), 2u);

  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(IngestQueueTest, TryPushFailsWhenFullWithoutWaiting) {
  using TryPush = IngestQueue<int>::TryPush;
  IngestQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), TryPush::kOk);
  EXPECT_EQ(q.try_push(2), TryPush::kOk);
  EXPECT_EQ(q.try_push(3), TryPush::kFull);  // nothing discarded
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(q.try_push(4), TryPush::kOk);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 4);
}

TEST(IngestQueueTest, TryPushFailsAfterClose) {
  using TryPush = IngestQueue<int>::TryPush;
  IngestQueue<int> q(4);
  q.close();
  EXPECT_EQ(q.try_push(1), TryPush::kClosed);
  EXPECT_EQ(q.size(), 0u);
}

TEST(IngestQueueTest, ZeroCapacityIsTakenAsOne) {
  using TryPush = IngestQueue<int>::TryPush;
  IngestQueue<int> q(0);
  EXPECT_EQ(q.try_push(1), TryPush::kOk);
  EXPECT_EQ(q.try_push(2), TryPush::kFull);
  EXPECT_EQ(q.size(), 1u);
}

TEST(IngestQueueTest, PushForcedBypassesCapacity) {
  IngestQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push_forced(2));  // would block as a normal push
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
}

TEST(IngestQueueTest, CloseDrainsRemainingElements) {
  IngestQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_FALSE(q.push_forced(4));
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(IngestQueueTest, PurgeAndCloseDiscardsEverything) {
  IngestQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.purge_and_close();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(IngestQueueTest, CloseUnblocksWaitingProducer) {
  IngestQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // blocked, then released by close()
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(IngestQueueTest, ManyProducersOneConsumer) {
  IngestQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) EXPECT_TRUE(q.push(i));
    });
  }
  int popped = 0;
  while (popped < kProducers * kPerProducer) {
    if (q.pop().has_value()) ++popped;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(popped, kProducers * kPerProducer);
  EXPECT_EQ(q.size(), 0u);
}

// --- Coalesced wake-ups ------------------------------------------------------
// A missed wake-up strands a parked consumer forever, so every wait below
// is bounded: the test fails instead of hanging, and close() then releases
// the stranded consumer.

using Clock = std::chrono::steady_clock;

/// Polls `pred` until it holds or `limit` passes; returns pred().
template <typename Pred>
bool eventually(Pred pred,
                Clock::duration limit = std::chrono::seconds(10)) {
  const auto deadline = Clock::now() + limit;
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

Clock::duration median(std::vector<Clock::duration> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

/// A consumer thread that stamps each popped value's arrival time.
struct StampingConsumer {
  explicit StampingConsumer(IngestQueue<int>& q, std::size_t n)
      : arrived(n), thread([this, &q] {
          while (auto v = q.pop()) {
            arrived[static_cast<std::size_t>(*v)] = Clock::now();
            last.store(*v, std::memory_order_release);
          }
        }) {}

  bool wait_for(int v) {
    return eventually(
        [&] { return last.load(std::memory_order_acquire) == v; });
  }

  std::vector<Clock::time_point> arrived;
  std::atomic<int> last{-1};
  std::thread thread;
};

TEST(IngestQueueWakeTest, FirstPushWakesParkedConsumer) {
  IngestQueue<int> q(1024);
  StampingConsumer consumer(q, 1);
  // The consumer outlasts its wake window on the empty queue and parks.
  ASSERT_TRUE(eventually([&] { return q.parked_consumers() == 1; }));
  EXPECT_TRUE(q.push(0));  // one element, far below the wake threshold
  const bool delivered = consumer.wait_for(0);
  q.close();
  consumer.thread.join();
  EXPECT_TRUE(delivered) << "a push to a parked consumer must wake it";
}

TEST(IngestQueueWakeTest, BelowThresholdPushReachesWaitingConsumerWithinWindow) {
  IngestQueue<int> q(1024);
  constexpr int kRounds = 160;
  StampingConsumer consumer(q, kRounds);
  std::vector<Clock::duration> latency;
  bool delivered = true;
  for (int i = 0; i < kRounds && delivered; ++i) {
    // Stagger each push across the consumer's window: some land while it
    // waits without a notify, some after it parked.
    std::this_thread::sleep_for(std::chrono::microseconds((i % 8) * 250));
    const auto sent = Clock::now();
    ASSERT_TRUE(q.push(i));
    delivered = consumer.wait_for(i);
    if (delivered)
      latency.push_back(consumer.arrived[static_cast<std::size_t>(i)] - sent);
  }
  q.close();
  consumer.thread.join();
  ASSERT_TRUE(delivered) << "element stranded below the wake threshold";
  // Typically under one window; the slack absorbs a loaded host.
  EXPECT_LT(median(latency), 10 * IngestQueue<int>::kWakeWindow);
}

TEST(IngestQueueWakeTest, ForcedPushWakesAtOnce) {
  IngestQueue<int> q(1024);
  constexpr int kRounds = 60;
  StampingConsumer consumer(q, kRounds);
  std::vector<Clock::duration> forced, unforced;
  bool delivered = true;
  for (int i = 0; i < kRounds && delivered; ++i) {
    // The consumer just popped i - 1 and is back inside its wake window:
    // an unforced push waits the window out, a forced one wakes it.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto sent = Clock::now();
    const bool force = i % 2 == 0;
    ASSERT_TRUE(force ? q.push_forced(i) : q.push(i));
    delivered = consumer.wait_for(i);
    if (delivered)
      (force ? forced : unforced)
          .push_back(consumer.arrived[static_cast<std::size_t>(i)] - sent);
  }
  q.close();
  consumer.thread.join();
  ASSERT_TRUE(delivered);
  // The fastest forced wake-up takes tens of microseconds; a typical
  // unforced pickup waits out most of the window. (The fastest, not the
  // typical, forced wake-up: on a loaded host every wake-up is late.)
  EXPECT_LT(2 * *std::min_element(forced.begin(), forced.end()),
            median(unforced));
}

TEST(IngestQueueWakeTest, CapacitiesOneAndTwoDeliverEveryElement) {
  for (const std::size_t capacity : {1u, 2u}) {
    IngestQueue<int> q(capacity);
    constexpr int kProducers = 2;
    constexpr int kPerProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i)
          EXPECT_TRUE(q.push(p * kPerProducer + i));
      });
    }
    // Per-producer FIFO order must survive, and nothing may be lost.
    std::vector<int> next(kProducers, 0);
    int popped = 0;
    while (popped < kProducers * kPerProducer) {
      const auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      const int p = *v / kPerProducer;
      EXPECT_EQ(*v % kPerProducer, next[static_cast<std::size_t>(p)]++);
      ++popped;
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(q.size(), 0u) << "capacity " << capacity;
  }
}

TEST(IngestQueueWakeTest, ProducerBlockedOnFullQueueResumes) {
  IngestQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(i));
  constexpr int kTotal = 1000;
  std::atomic<int> pushed{4};
  std::thread producer([&] {
    for (int i = 4; i < kTotal; ++i) {
      EXPECT_TRUE(q.push(i));
      pushed.store(i + 1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pushed.load(), 4) << "push into a full queue must block";

  StampingConsumer consumer(q, kTotal);
  const bool delivered = consumer.wait_for(kTotal - 1);
  q.close();
  producer.join();
  consumer.thread.join();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(pushed.load(), kTotal);
}

}  // namespace
}  // namespace p2prep::service
