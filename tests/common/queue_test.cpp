#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace pe {
namespace {

TEST(BoundedQueueTest, PushPopFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, CloseUnblocksPoppers) {
  BoundedQueue<int> q(2);
  std::thread t([&] {
    auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BoundedQueueTest, DrainsRemainingItemsAfterClose) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(2));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEverything) {
  BoundedQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kItemsPer = 500;
  std::atomic<long long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 1; i <= kItemsPer; ++i) ASSERT_TRUE(q.push(i));
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(received.load(), kProducers * kItemsPer);
  const long long expected =
      static_cast<long long>(kProducers) * kItemsPer * (kItemsPer + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace pe
