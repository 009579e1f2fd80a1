// Scheduler priorities: higher priority dispatches first, FIFO within a
// level.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "taskexec/scheduler.h"

namespace pe::exec {
namespace {

TEST(PriorityTest, HigherPriorityDispatchesFirst) {
  Scheduler scheduler;
  auto worker = std::make_shared<Worker>(
      WorkerSpec{.id = "w", .site = "s", .cores = 1, .memory_gb = 4.0});
  ASSERT_TRUE(scheduler.add_worker(worker).ok());

  // Block the single core so submissions queue.
  std::atomic<bool> release{false};
  TaskSpec blocker;
  blocker.fn = [&](TaskContext&) {
    while (!release.load()) Clock::sleep_exact(std::chrono::milliseconds(1));
    return Status::Ok();
  };
  auto blocker_handle = scheduler.submit(std::move(blocker));
  ASSERT_TRUE(blocker_handle.ok());

  std::mutex order_mutex;
  std::vector<std::string> order;
  auto make = [&](const std::string& name, std::int32_t priority) {
    TaskSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.fn = [&order, &order_mutex, name](TaskContext&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(name);
      return Status::Ok();
    };
    return spec;
  };
  std::vector<TaskHandle> handles;
  for (auto&& [name, priority] :
       std::vector<std::pair<std::string, std::int32_t>>{
           {"low-1", 0}, {"low-2", 0}, {"high", 10}, {"mid", 5},
           {"low-3", 0}, {"urgent", 20}}) {
    auto handle = scheduler.submit(make(name, priority));
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(handle).value());
  }

  release.store(true);
  ASSERT_TRUE(blocker_handle.value().wait().ok());
  for (auto& h : handles) ASSERT_TRUE(h.wait().ok());

  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "urgent");
  EXPECT_EQ(order[1], "high");
  EXPECT_EQ(order[2], "mid");
  // FIFO within the same priority level.
  EXPECT_EQ(order[3], "low-1");
  EXPECT_EQ(order[4], "low-2");
  EXPECT_EQ(order[5], "low-3");
}

TEST(PriorityTest, EqualPriorityKeepsFifo) {
  Scheduler scheduler;
  auto worker = std::make_shared<Worker>(
      WorkerSpec{.id = "w", .site = "s", .cores = 1, .memory_gb = 4.0});
  ASSERT_TRUE(scheduler.add_worker(worker).ok());
  std::atomic<bool> release{false};
  TaskSpec blocker;
  blocker.fn = [&](TaskContext&) {
    while (!release.load()) Clock::sleep_exact(std::chrono::milliseconds(1));
    return Status::Ok();
  };
  auto bh = scheduler.submit(std::move(blocker));
  std::vector<int> order;
  std::mutex m;
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 5; ++i) {
    TaskSpec spec;
    spec.fn = [&order, &m, i](TaskContext&) {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
      return Status::Ok();
    };
    handles.push_back(scheduler.submit(std::move(spec)).value());
  }
  release.store(true);
  ASSERT_TRUE(bh.ok());
  (void)bh.value().wait();
  for (auto& h : handles) ASSERT_TRUE(h.wait().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace pe::exec
