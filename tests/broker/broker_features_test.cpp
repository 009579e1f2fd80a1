// Tests for time-based retention and consumer-group liveness
// (heartbeats / session eviction).
#include <gtest/gtest.h>

#include "broker/broker.h"
#include "broker/consumer.h"
#include "network/fabric.h"

namespace pe::broker {
namespace {

Record make_record(const std::string& key, std::size_t size = 8) {
  Record r;
  r.key = key;
  r.value = Bytes(size, 0x3);
  return r;
}

TEST(TimeRetentionTest, OldRecordsAgeOut) {
  RetentionPolicy retention;
  retention.max_age = std::chrono::milliseconds(30);
  PartitionLog log(retention);
  (void)log.append(make_record("old"));
  Clock::sleep_exact(std::chrono::milliseconds(40));
  (void)log.append(make_record("new"));  // retention enforced on append
  EXPECT_EQ(log.record_count(), 1u);
  EXPECT_EQ(log.log_start_offset(), 1u);
  FetchSpec spec;
  spec.offset = 1;
  EXPECT_EQ(log.fetch(spec).value().front().record.key, "new");
}

TEST(TimeRetentionTest, LastRecordNeverAgedOut) {
  RetentionPolicy retention;
  retention.max_age = std::chrono::milliseconds(5);
  PartitionLog log(retention);
  (void)log.append(make_record("only"));
  Clock::sleep_exact(std::chrono::milliseconds(10));
  (void)log.append(make_record("second"));
  // The newest record survives even if technically old at next append.
  EXPECT_GE(log.record_count(), 1u);
}

class LivenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<net::Fabric>();
    ASSERT_TRUE(fabric_->add_site({.id = "s"}).ok());
    broker_ = std::make_shared<Broker>("s");
    ASSERT_TRUE(broker_->create_topic("t", TopicConfig{.partitions = 2}).ok());
  }
  std::shared_ptr<net::Fabric> fabric_;
  std::shared_ptr<Broker> broker_;
};

TEST_F(LivenessTest, SilentMemberIsEvicted) {
  broker_->coordinator().set_session_timeout(std::chrono::milliseconds(30));
  ASSERT_TRUE(broker_->coordinator().join("g", "alive", {"t"}).ok());
  ASSERT_TRUE(broker_->coordinator().join("g", "silent", {"t"}).ok());
  EXPECT_EQ(broker_->coordinator().members("g").size(), 2u);

  // Only "alive" heartbeats past the session timeout.
  for (int i = 0; i < 5; ++i) {
    Clock::sleep_exact(std::chrono::milliseconds(10));
    ASSERT_TRUE(broker_->coordinator().heartbeat("g", "alive").ok());
  }
  const auto members = broker_->coordinator().members("g");
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], "alive");
  // The survivor owns everything after the eviction rebalance.
  EXPECT_EQ(broker_->coordinator().assignment("g", "alive").value()
                .partitions.size(),
            2u);
}

TEST_F(LivenessTest, HeartbeatUnknownMemberFails) {
  EXPECT_EQ(broker_->coordinator().heartbeat("none", "x").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(broker_->coordinator().join("g", "m", {"t"}).ok());
  EXPECT_EQ(broker_->coordinator().heartbeat("g", "ghost").code(),
            StatusCode::kNotFound);
}

TEST_F(LivenessTest, DisabledTimeoutNeverEvicts) {
  ASSERT_TRUE(broker_->coordinator().join("g", "m", {"t"}).ok());
  Clock::sleep_exact(std::chrono::milliseconds(20));
  ASSERT_TRUE(broker_->coordinator().join("g", "m2", {"t"}).ok());
  EXPECT_EQ(broker_->coordinator().members("g").size(), 2u);
}

TEST_F(LivenessTest, PollingConsumerStaysAliveAndInheritsDeadPeersWork) {
  broker_->coordinator().set_session_timeout(std::chrono::milliseconds(40));
  Consumer survivor(broker_, fabric_, "s", "g");
  ASSERT_TRUE(survivor.subscribe({"t"}).ok());
  {
    Consumer doomed(broker_, fabric_, "s", "g");
    ASSERT_TRUE(doomed.subscribe({"t"}).ok());
    (void)survivor.poll(std::chrono::milliseconds(5));
    (void)doomed.poll(std::chrono::milliseconds(5));
    // Simulate a crash: `doomed` stops polling but never leaves. Keep it
    // alive in scope so no clean leave() happens... then drop it without
    // close by detaching: we cannot skip the destructor, so emulate the
    // silent death via the coordinator directly below instead.
  }
  // After the destructor the group has one member; re-add a silent one.
  ASSERT_TRUE(broker_->coordinator().join("g", "zombie", {"t"}).ok());
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  bool sole_owner = false;
  while (Clock::now() < deadline && !sole_owner) {
    (void)survivor.poll(std::chrono::milliseconds(10));
    sole_owner = survivor.assignment().size() == 2;
  }
  EXPECT_TRUE(sole_owner);  // zombie evicted, survivor owns both partitions
}

TEST_F(LivenessTest, EvictedConsumerRejoinsOnNextPoll) {
  broker_->coordinator().set_session_timeout(std::chrono::milliseconds(25));
  Consumer consumer(broker_, fabric_, "s", "g");
  ASSERT_TRUE(consumer.subscribe({"t"}).ok());
  // Consumer goes silent long enough to be evicted...
  Clock::sleep_exact(std::chrono::milliseconds(40));
  // ...someone else touches the group, causing the eviction sweep.
  ASSERT_TRUE(broker_->coordinator().join("g", "other", {"t"}).ok());
  EXPECT_EQ(broker_->coordinator().members("g").size(), 1u);
  // Next poll rejoins automatically.
  (void)consumer.poll(std::chrono::milliseconds(10));
  EXPECT_EQ(broker_->coordinator().members("g").size(), 2u);
  EXPECT_FALSE(consumer.assignment().empty());
}

}  // namespace
}  // namespace pe::broker
