#include "broker/broker.h"

#include <gtest/gtest.h>

namespace pe::broker {
namespace {

Record make_record(const std::string& key, std::size_t size = 8) {
  Record r;
  r.key = key;
  r.value = Bytes(size, 0x1);
  return r;
}

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<Broker>("cloud", "b0");
    ASSERT_TRUE(broker_->create_topic("t", TopicConfig{.partitions = 2}).ok());
  }
  std::shared_ptr<Broker> broker_;
};

TEST_F(BrokerTest, CreateDuplicateTopicFails) {
  EXPECT_EQ(broker_->create_topic("t", {}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(BrokerTest, CreateTopicValidation) {
  EXPECT_EQ(broker_->create_topic("", {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker_->create_topic("x", TopicConfig{.partitions = 0}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, TopicNamesListsAll) {
  ASSERT_TRUE(broker_->create_topic("u", {}).ok());
  const auto names = broker_->topic_names();
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(BrokerTest, ProduceAndFetchRoundTrip) {
  std::vector<Record> batch;
  batch.push_back(make_record("k1"));
  batch.push_back(make_record("k2"));
  auto offset = broker_->produce("t", 0, std::move(batch));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(offset.value(), 0u);

  FetchSpec spec;
  auto fetched = broker_->fetch("t", 0, spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 2u);
  EXPECT_EQ(fetched.value()[0].topic, "t");
  EXPECT_EQ(fetched.value()[0].partition, 0u);
  EXPECT_EQ(fetched.value()[0].record.key, "k1");
  EXPECT_EQ(fetched.value()[1].offset, 1u);
}

TEST_F(BrokerTest, ProduceToUnknownTopicOrPartitionFails) {
  EXPECT_EQ(broker_->produce("nope", 0, {make_record("k")}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(broker_->produce("t", 9, {make_record("k")}).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(BrokerTest, FetchErrorsPropagate) {
  EXPECT_EQ(broker_->fetch("nope", 0, {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(broker_->fetch("t", 9, {}).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(BrokerTest, WatermarksTrackAppends) {
  EXPECT_EQ(broker_->end_offset("t", 0).value(), 0u);
  ASSERT_TRUE(broker_->produce("t", 0, {make_record("k")}).ok());
  EXPECT_EQ(broker_->end_offset("t", 0).value(), 1u);
  EXPECT_EQ(broker_->log_start_offset("t", 0).value(), 0u);
  EXPECT_EQ(broker_->end_offset("t", 1).value(), 0u);  // other partition
}

TEST_F(BrokerTest, SelectPartitionUsesTopicPartitioner) {
  Record keyed = make_record("stable-key");
  auto p1 = broker_->select_partition("t", keyed);
  auto p2 = broker_->select_partition("t", keyed);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(broker_->select_partition("nope", keyed).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BrokerTest, StatsCountTraffic) {
  ASSERT_TRUE(broker_->produce("t", 0, {make_record("k", 100)}).ok());
  ASSERT_TRUE(broker_->fetch("t", 0, {}).ok());
  const auto stats = broker_->stats();
  EXPECT_EQ(stats.produce_requests, 1u);
  EXPECT_EQ(stats.fetch_requests, 1u);
  EXPECT_EQ(stats.records_in, 1u);
  EXPECT_EQ(stats.records_out, 1u);
  EXPECT_EQ(stats.bytes_in, stats.bytes_out);
  EXPECT_GT(stats.bytes_in, 100u);
}

TEST_F(BrokerTest, RetainedBytesSumAcrossTopics) {
  ASSERT_TRUE(broker_->produce("t", 0, {make_record("k", 50)}).ok());
  EXPECT_GT(broker_->retained_bytes(), 50u);
}

TEST_F(BrokerTest, CoordinatorIsWiredToTopics) {
  auto joined = broker_->coordinator().join("g", "m", {"t"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().partitions.size(), 2u);
}

}  // namespace
}  // namespace pe::broker
