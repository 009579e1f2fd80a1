#include "common/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace pe {
namespace {

TEST(BufferPoolTest, AcquireReservesAtLeastHint) {
  BufferPool pool;
  std::shared_ptr<Bytes> buf = pool.acquire_shared(1024);
  EXPECT_TRUE(buf->empty());
  EXPECT_GE(buf->capacity(), 1024u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, ReleaseRecyclesCapacity) {
  BufferPool pool;
  std::shared_ptr<Bytes> buf = pool.acquire_shared(4096);
  buf->assign(4096, 0xAB);
  const Bytes::value_type* data = buf->data();
  buf.reset();
  EXPECT_EQ(pool.free_count(), 1u);

  std::shared_ptr<Bytes> again = pool.acquire_shared(100);
  // Same allocation came back, emptied, capacity intact.
  EXPECT_EQ(again->data(), data);
  EXPECT_TRUE(again->empty());
  EXPECT_GE(again->capacity(), 4096u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EmptyBuffersAreNotPooled) {
  BufferPool pool;
  pool.acquire_shared(0).reset();  // capacity 0: nothing worth recycling
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.stats().discards, 0u);  // not counted as a discard either
}

TEST(BufferPoolTest, OversizedBuffersAreDiscarded) {
  BufferPool::Options options;
  options.max_buffer_bytes = 128;
  BufferPool pool(options);
  std::shared_ptr<Bytes> big = pool.acquire_shared();
  big->assign(4096, 0x1);
  big.reset();
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(BufferPoolTest, FreeListIsBounded) {
  BufferPool::Options options;
  options.max_buffers = 2;
  BufferPool pool(options);
  std::vector<std::shared_ptr<Bytes>> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire_shared(64));
  held.clear();
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_EQ(pool.stats().discards, 3u);
}

TEST(BufferPoolTest, SharedHandleReturnsToPoolOnLastRelease) {
  BufferPool pool;
  {
    std::shared_ptr<Bytes> buf = pool.acquire_shared(256);
    buf->assign(10, 0x7);
    std::shared_ptr<Bytes> alias = buf;  // extra reference
    buf.reset();
    EXPECT_EQ(pool.free_count(), 0u);  // alias still holds it
  }
  EXPECT_EQ(pool.free_count(), 1u);
  // And it is handed out again on the next acquire.
  std::shared_ptr<Bytes> reused = pool.acquire_shared(1);
  EXPECT_GE(reused->capacity(), 256u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseSmoke) {
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<std::uint64_t> bytes_written{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::shared_ptr<Bytes> buf =
            pool.acquire_shared(static_cast<std::size_t>(64 + (i % 512)));
        buf->push_back(static_cast<std::uint8_t>(t));
        bytes_written.fetch_add(buf->size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  constexpr std::uint64_t kTotal = kThreads * kIters;
  EXPECT_EQ(bytes_written.load(), kTotal);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kTotal);
  // Steady state: a small number of threads recycles a small number of
  // buffers — far fewer fresh allocations than acquires.
  EXPECT_LE(pool.free_count(), static_cast<std::size_t>(kThreads));
}

TEST(BufferPoolTest, SharedAcquireRecyclesAcrossCycles) {
  // Regression: acquire_shared must hand the SAME underlying allocation
  // back cycle after cycle (the custom deleter returns it to the pool),
  // not allocate fresh storage per acquire.
  BufferPool pool;
  const Bytes::value_type* data = nullptr;
  constexpr int kCycles = 100;
  for (int i = 0; i < kCycles; ++i) {
    std::shared_ptr<Bytes> buf = pool.acquire_shared(512);
    buf->assign(128, static_cast<std::uint8_t>(i));
    if (data == nullptr) {
      data = buf->data();
    } else {
      EXPECT_EQ(buf->data(), data) << "cycle " << i << " reallocated";
    }
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);  // only the very first acquire allocated
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCycles - 1));
  EXPECT_EQ(pool.free_count(), 1u);  // no growth: one buffer in steady state
}

TEST(BufferPoolTest, GlobalPoolIsSingleInstance) {
  EXPECT_EQ(&BufferPool::global(), &BufferPool::global());
}

}  // namespace
}  // namespace pe
