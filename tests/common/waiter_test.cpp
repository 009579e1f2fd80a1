#include "common/waiter.h"

#include <gtest/gtest.h>

#include <thread>

namespace pe {
namespace {

using namespace std::chrono_literals;

TEST(WaiterTest, NotifyBeforeWaitIsNotLost) {
  Waiter waiter;
  const std::uint64_t seen = waiter.epoch();
  waiter.notify();  // lands between the caller's check and its wait
  Stopwatch sw;
  EXPECT_TRUE(waiter.wait(seen, Clock::now() + 5s));
  EXPECT_LT(sw.elapsed_ms(), 1000.0);
}

TEST(WaiterTest, WaitEndsAtDeadlineWithoutNotify) {
  Waiter waiter;
  Stopwatch sw;
  EXPECT_FALSE(waiter.wait(waiter.epoch(), Clock::now() + 20ms));
  EXPECT_GE(sw.elapsed_ms(), 15.0);
}

TEST(WaiterTest, NotifyWakesAWaitingThread) {
  Waiter waiter;
  const std::uint64_t seen = waiter.epoch();
  std::thread notifier([&] {
    std::this_thread::sleep_for(10ms);
    waiter.notify();
  });
  Stopwatch sw;
  EXPECT_TRUE(waiter.wait(seen, Clock::now() + 5s));
  notifier.join();
  EXPECT_LT(sw.elapsed_ms(), 1000.0);
}

TEST(WaiterTest, ParkAddsOnceAndDropsExpired) {
  ParkedWaiters parked;
  auto kept = std::make_shared<Waiter>();
  auto gone = std::make_shared<Waiter>();
  park(parked, kept);
  park(parked, gone);
  park(parked, kept);
  EXPECT_EQ(parked.size(), 2u);
  gone.reset();
  park(parked, kept);
  EXPECT_EQ(parked.size(), 1u);
  notify_all(parked);
  EXPECT_EQ(kept->epoch(), 1u);
}

}  // namespace
}  // namespace pe
