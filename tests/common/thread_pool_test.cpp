#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace pe {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  // With no thread at all the job would never run.
  ThreadPool pool(0);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  pool.shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace pe
