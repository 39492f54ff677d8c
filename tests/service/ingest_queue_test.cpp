#include "service/ingest_queue.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace p2prep::service
