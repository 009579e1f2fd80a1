// Durability contract tests for the broker: committed offsets survive a
// hard crash with zero loss, acked records come back at the same offset
// with identical payloads, torn tails are truncated (never served), and
// topic metadata replays from the write-ahead intent log.
#include "broker/broker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/serialize.h"
#include "network/fabric.h"
#include "storage/log_dir.h"

namespace pe::broker {
namespace {

namespace fs = std::filesystem;

Record make_record(const std::string& key, std::size_t value_size = 32,
                   std::uint8_t fill = 0x42) {
  Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

class DurableBrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_dbroker_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::shared_ptr<Broker> make_broker(storage::StorageConfig storage = {}) {
    BrokerOptions options;
    options.durable_dir = dir_;
    options.storage = storage;
    return std::make_shared<Broker>("cloud", options);
  }

  std::string dir_;
};

TEST_F(DurableBrokerTest, InMemoryBrokerRefusesCrashAndRecover) {
  Broker broker("cloud");
  EXPECT_FALSE(broker.durable());
  EXPECT_FALSE(broker.crash_and_recover().ok());
}

TEST_F(DurableBrokerTest, TopicsAndRecordsSurviveCrash) {
  storage::StorageConfig storage;
  storage.flush_policy = storage::FlushPolicy::kEverySync;  // ack == durable
  auto broker = make_broker(storage);
  TopicConfig config;
  config.partitions = 2;
  ASSERT_TRUE(broker->create_topic("events", config).ok());
  std::vector<Bytes> sent;
  for (int i = 0; i < 20; ++i) {
    Bytes value(48, static_cast<std::uint8_t>(i));
    sent.push_back(value);
    Record r;
    r.key = "k" + std::to_string(i);
    r.value = value;
    ASSERT_TRUE(broker->produce("events", i % 2, {std::move(r)}).ok());
  }

  auto report = broker->crash_and_recover(/*keep_fraction=*/0.0);
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  ASSERT_TRUE(broker->has_topic("events"));
  EXPECT_EQ(broker->partition_count("events"), 2u);
  // Every produced record is back at the same offset, payload identical.
  for (std::uint32_t p = 0; p < 2; ++p) {
    FetchSpec spec;
    spec.max_records = 100;
    auto fetched = broker->fetch("events", p, spec);
    ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
    ASSERT_EQ(fetched.value().size(), 10u);
    for (std::size_t i = 0; i < fetched.value().size(); ++i) {
      const auto& r = fetched.value()[i];
      EXPECT_EQ(r.offset, i);
      const int seq = static_cast<int>(p + 2 * i);
      EXPECT_EQ(r.record.key, "k" + std::to_string(seq));
      EXPECT_TRUE(r.record.value == Payload(sent[static_cast<std::size_t>(
                                        seq)]))
          << "payload mismatch at partition " << p << " offset " << i;
    }
  }
}

TEST_F(DurableBrokerTest, CommittedOffsetsSurviveCrashWithZeroLoss) {
  storage::StorageConfig storage;
  storage.flush_policy = storage::FlushPolicy::kEverySync;
  auto broker = make_broker(storage);
  ASSERT_TRUE(broker->create_topic("events", {}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        broker->produce("events", 0, {make_record(std::to_string(i))}).ok());
  }
  const TopicPartition tp{"events", 0};
  ASSERT_TRUE(broker->coordinator().commit_offset("g1", tp, 4).ok());
  ASSERT_TRUE(broker->coordinator().commit_offset("g1", tp, 7).ok());
  ASSERT_TRUE(broker->coordinator().commit_offset("g2", tp, 2).ok());

  ASSERT_TRUE(broker->crash_and_recover().ok());

  // The offsets log is fsynced per commit: zero committed-offset loss.
  auto g1 = broker->coordinator().committed_offset("g1", tp);
  auto g2 = broker->coordinator().committed_offset("g2", tp);
  ASSERT_TRUE(g1.has_value());
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(*g1, 7u);
  EXPECT_EQ(*g2, 2u);
  // And the records at those offsets are re-fetchable.
  FetchSpec spec;
  spec.offset = *g1;
  auto fetched = broker->fetch("events", 0, spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_FALSE(fetched.value().empty());
  EXPECT_EQ(fetched.value()[0].record.key, "7");
}

TEST_F(DurableBrokerTest, TornTailIsTruncatedNotServed) {
  storage::StorageConfig storage;
  storage.flush_policy = storage::FlushPolicy::kNever;
  auto broker = make_broker(storage);
  ASSERT_TRUE(broker->create_topic("events", {}).ok());
  // Nothing is ever fsynced (kNever): all 8 records are dirty when the
  // power cut keeps half the tail bytes, cutting a frame mid-write.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        broker->produce("events", 0, {make_record("dirty", 64)}).ok());
  }
  auto report = broker->crash_and_recover(/*keep_fraction=*/0.5);
  ASSERT_TRUE(report.ok());

  auto end = broker->end_offset("events", 0);
  ASSERT_TRUE(end.ok());
  EXPECT_LE(end.value(), 8u);
  // Whatever survived is a dense, CRC-clean prefix: fetching the whole
  // range succeeds and returns exactly end_offset records.
  FetchSpec spec;
  spec.max_records = 100;
  auto fetched = broker->fetch("events", 0, spec);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().size(), end.value());
  for (std::size_t i = 0; i < fetched.value().size(); ++i) {
    EXPECT_EQ(fetched.value()[i].offset, i);
    EXPECT_EQ(fetched.value()[i].record.value.size(), 64u);
  }
  // Fetching past the truncated end is OUT_OF_RANGE, not garbage.
  spec.offset = end.value() + 1;
  EXPECT_FALSE(broker->fetch("events", 0, spec).ok());
}

TEST_F(DurableBrokerTest, MalformedTopicIntentIsSkippedOnRecovery) {
  {
    auto broker = make_broker();
    ASSERT_TRUE(broker->create_topic("keep", {}).ok());
  }
  {
    auto meta = storage::LogDir::open(dir_ + "/__meta", {});
    ASSERT_TRUE(meta.ok()) << meta.status().to_string();
    // A create intent cut short before its trailing hot_max_bytes.
    Record truncated;
    truncated.key = "short";
    Bytes value;
    ByteWriter w(value);
    w.put_u8(1);   // create
    w.put_u32(1);  // partitions
    w.put_u64(0);  // max_records
    w.put_u64(0);  // max_bytes
    w.put_u64(0);  // max_age_ns
    w.put_u8(0);   // partitioner
    truncated.value = value;
    ASSERT_TRUE(meta.value()->append(truncated, 1).ok());
    // A full-length intent whose op is not create.
    Record other_op;
    other_op.key = "keep";
    w.put_u64(0);  // hot_max_bytes
    value[0] = 2;
    other_op.value = value;
    ASSERT_TRUE(meta.value()->append(other_op, 2).ok());
  }
  auto broker = make_broker();
  EXPECT_TRUE(broker->has_topic("keep"));
  EXPECT_FALSE(broker->has_topic("short"));
}

TEST_F(DurableBrokerTest, FreshProcessReopensTheSameDirectory) {
  {
    auto broker = make_broker();
    ASSERT_TRUE(broker->create_topic("events", {}).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          broker->produce("events", 0, {make_record(std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE(broker->coordinator()
                    .commit_offset("g", {"events", 0}, 3)
                    .ok());
  }  // broker destroyed: simulates clean process exit
  auto broker = make_broker();
  ASSERT_TRUE(broker->has_topic("events"));
  auto committed = broker->coordinator().committed_offset("g", {"events", 0});
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, 3u);
  // Offsets resume, no reuse.
  auto off = broker->produce("events", 0, {make_record("5")});
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value(), 5u);
}

// Satellite e2e: consumer crashes uncommitted, the broker hard-restarts,
// and a replacement consumer in the same group replays exactly from the
// last committed offset (at-least-once, no committed work lost).
TEST_F(DurableBrokerTest, ConsumerCrashBrokerRestartResumeFromCommitted) {
  auto fabric = std::make_shared<net::Fabric>();
  ASSERT_TRUE(fabric->add_site({.id = "cloud"}).ok());
  ASSERT_TRUE(fabric->add_site({.id = "edge"}).ok());
  net::LinkSpec link;
  link.from = "edge";
  link.to = "cloud";
  link.latency_min = link.latency_max = std::chrono::microseconds(200);
  link.bandwidth_min_bps = link.bandwidth_max_bps = 1e9;
  ASSERT_TRUE(fabric->add_bidirectional_link(link).ok());
  storage::StorageConfig storage;
  storage.flush_policy = storage::FlushPolicy::kEverySync;
  auto broker = make_broker(storage);
  ASSERT_TRUE(broker->create_topic("events", {}).ok());

  Producer producer(broker, fabric, "edge");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        producer.send("events", 0, make_record(std::to_string(i))).ok());
  }

  ConsumerConfig config;
  config.max_poll_records = 5;  // several polls to drain the topic
  std::uint64_t committed_position = 0;
  {
    Consumer consumer(broker, fabric, "edge", "workers", config);
    ASSERT_TRUE(consumer.subscribe({"events"}).ok());
    auto first = consumer.poll(std::chrono::milliseconds(100));
    ASSERT_FALSE(first.empty());
    ASSERT_TRUE(consumer.commit().ok());  // processed the first batch
    committed_position = first.back().offset + 1;
    // Poll more but crash before committing: these must be redelivered.
    auto second = consumer.poll(std::chrono::milliseconds(100));
    consumer.crash();
  }

  ASSERT_TRUE(broker->crash_and_recover().ok());

  Consumer replacement(broker, fabric, "edge", "workers", config);
  ASSERT_TRUE(replacement.subscribe({"events"}).ok());
  std::vector<ConsumedRecord> replayed;
  for (int attempt = 0; attempt < 10 && replayed.size() < 12 -
                                            committed_position;
       ++attempt) {
    auto batch = replacement.poll(std::chrono::milliseconds(100));
    replayed.insert(replayed.end(), batch.begin(), batch.end());
  }
  ASSERT_FALSE(replayed.empty());
  // Replay starts exactly at the committed position — uncommitted
  // deliveries repeat, committed ones do not.
  EXPECT_EQ(replayed.front().offset, committed_position);
  EXPECT_EQ(replayed.front().record.key,
            std::to_string(committed_position));
  EXPECT_EQ(replayed.back().offset, 11u);
  replacement.close();
}

}  // namespace
}  // namespace pe::broker
