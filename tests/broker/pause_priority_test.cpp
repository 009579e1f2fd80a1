// Consumer pause/resume (backpressure) and scheduler priorities.
#include <gtest/gtest.h>

#include "client_targets.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "network/fabric.h"
#include "taskexec/scheduler.h"

namespace pe::broker {
namespace {

class PauseResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<net::Fabric>();
    ASSERT_TRUE(fabric_->add_site({.id = "s"}).ok());
    broker_ = std::make_shared<Broker>("s");
    ASSERT_TRUE(broker_->create_topic("t", TopicConfig{.partitions = 2}).ok());
    producer_ = std::make_unique<Producer>(broker_, fabric_, "s");
  }

  void send(std::uint32_t partition, const std::string& key) {
    Record r;
    r.key = key;
    r.value = Bytes{1};
    ASSERT_TRUE(producer_->send("t", partition, std::move(r)).ok());
  }

  std::shared_ptr<net::Fabric> fabric_;
  std::shared_ptr<Broker> broker_;
  std::unique_ptr<Producer> producer_;
};

TEST_F(PauseResumeTest, PausedPartitionIsSkipped) {
  // Pause/resume is pure client state: it holds on a cluster too.
  for (const auto& target : client_targets(broker_, fabric_, "t", 2)) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "s");
    Consumer consumer(target.endpoint, target.fabric, "s", "g");
    ASSERT_TRUE(consumer.assign({{"t", 0}, {"t", 1}}).ok());
    for (std::uint32_t p = 0; p < 2; ++p) {
      Record r;
      r.key = "p" + std::to_string(p);
      r.value = Bytes{1};
      ASSERT_TRUE(producer.send("t", p, std::move(r)).ok());
    }

    ASSERT_TRUE(consumer.pause({"t", 0}).ok());
    EXPECT_TRUE(consumer.paused({"t", 0}));
    auto records = consumer.poll(std::chrono::milliseconds(50));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].record.key, "p1");

    ASSERT_TRUE(consumer.resume({"t", 0}).ok());
    EXPECT_FALSE(consumer.paused({"t", 0}));
    records = consumer.poll(std::chrono::milliseconds(50));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].record.key, "p0");
  }
}

TEST_F(PauseResumeTest, AllPausedPollReturnsEmptyAfterTimeout) {
  Consumer consumer(broker_, fabric_, "s", "g");
  ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
  send(0, "k");
  ASSERT_TRUE(consumer.pause({"t", 0}).ok());
  Stopwatch sw;
  EXPECT_TRUE(consumer.poll(std::chrono::milliseconds(30)).empty());
  EXPECT_GE(sw.elapsed_ms(), 25.0);
}

TEST_F(PauseResumeTest, Validation) {
  Consumer consumer(broker_, fabric_, "s", "g");
  ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
  EXPECT_EQ(consumer.pause({"t", 1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(consumer.resume({"t", 0}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(consumer.pause({"t", 0}).ok());
  ASSERT_TRUE(consumer.pause({"t", 0}).ok());  // idempotent
  ASSERT_TRUE(consumer.resume({"t", 0}).ok());
  EXPECT_EQ(consumer.resume({"t", 0}).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pe::broker

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
