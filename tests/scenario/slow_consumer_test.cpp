// Slow-consumer lag scenario: a consumer stops polling, the producer
// keeps going until the partition's hot window has trimmed PAST the
// consumer's position, and when it polls again the consumer is served the
// trimmed prefix from the durable cold segments — every acked record
// arrives exactly once, in order, with zero acked loss.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/clock.h"
#include "network/fabric.h"

namespace pe::scenario {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::shared_ptr<net::Fabric> make_fabric() {
  auto fabric = std::make_shared<net::Fabric>();
  EXPECT_TRUE(fabric->add_site({.id = "cloud"}).ok());
  EXPECT_TRUE(fabric->add_site({.id = "edge"}).ok());
  net::LinkSpec spec;
  spec.from = "edge";
  spec.to = "cloud";
  spec.latency_min = spec.latency_max = std::chrono::microseconds(200);
  spec.bandwidth_min_bps = spec.bandwidth_max_bps = 1e9;
  EXPECT_TRUE(fabric->add_bidirectional_link(spec).ok());
  return fabric;
}

class SlowConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_slow_consumer_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(SlowConsumerTest, ResumedConsumerDrainsTrimmedPrefixFromColdTier) {
  constexpr std::uint64_t kHotCap = 4096;
  constexpr int kRecords = 200;
  constexpr std::size_t kValueBytes = 256;

  broker::BrokerOptions options;
  options.durable_dir = dir_;
  auto broker = std::make_shared<broker::Broker>("cloud", options);
  auto fabric = make_fabric();
  broker::TopicConfig tc;
  tc.retention.hot_max_bytes = kHotCap;  // hot deque holds ~12 records
  ASSERT_TRUE(broker->create_topic("t", tc).ok());

  broker::Producer producer(broker, fabric, "edge");
  broker::Consumer consumer(broker, fabric, "cloud", "lagging");
  ASSERT_TRUE(consumer.subscribe({"t"}).ok());

  auto send_n = [&](int from, int n) {
    for (int i = from; i < from + n; ++i) {
      broker::Record r;
      r.key = "k" + std::to_string(i);
      r.value = Bytes(kValueBytes, static_cast<std::uint8_t>(i));
      auto meta = producer.send("t", 0, std::move(r));
      ASSERT_TRUE(meta.ok()) << meta.status().to_string();
      ASSERT_EQ(meta.value().offset, static_cast<std::uint64_t>(i));
    }
  };

  // Phase 1: the consumer keeps up with an initial burst.
  send_n(0, 20);
  std::vector<std::uint64_t> seen;
  const auto warmup_deadline = Clock::now() + 10s;
  while (seen.size() < 20 && Clock::now() < warmup_deadline) {
    for (const auto& cr : consumer.poll(100ms)) seen.push_back(cr.offset);
  }
  ASSERT_EQ(seen.size(), 20u);

  // Phase 2: the consumer stops polling (a worker falling behind)...
  const broker::TopicPartition tp{"t", 0};

  // ...while the producer keeps going far past the hot window. All
  // records are acked; the hot trim moves data to the cold tier only.
  send_n(20, kRecords - 20);
  ASSERT_LE(broker->hot_window_bytes(), kHotCap);
  // The consumer's resume point (offset 20) has been trimmed out of the
  // hot deque: ~4 kB of window cannot reach back 180 records * 320 B.
  const std::uint64_t backlog_bytes =
      static_cast<std::uint64_t>(kRecords - 20) *
      (kValueBytes + broker::kRecordWireOverheadBytes);
  ASSERT_GT(backlog_bytes, kHotCap);

  // Phase 3: polling again. Every remaining record must be served — the
  // prefix from durable cold segments, the tail from the hot window — in
  // order, exactly once.
  const auto drain_deadline = Clock::now() + 30s;
  while (seen.size() < kRecords && Clock::now() < drain_deadline) {
    for (const auto& cr : consumer.poll(100ms)) seen.push_back(cr.offset);
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRecords))
      << "acked records lost across the hot-window trim";
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i))
        << "out-of-order or duplicated delivery at index " << i;
  }

  // Clean close commits the final position; a successor in the same
  // group starts exactly at the end — nothing is re-delivered.
  consumer.close();
  auto committed = broker->coordinator().committed_offset("lagging", tp);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, static_cast<std::uint64_t>(kRecords));
}

TEST_F(SlowConsumerTest, LagIsBoundedByColdTierNotLost) {
  // Variant: a consumer that starts LATE (after the
  // trim already happened) still reads from offset 0 via the cold path.
  broker::BrokerOptions options;
  options.durable_dir = dir_;
  auto broker = std::make_shared<broker::Broker>("cloud", options);
  auto fabric = make_fabric();
  broker::TopicConfig tc;
  tc.retention.hot_max_bytes = 2048;
  ASSERT_TRUE(broker->create_topic("t", tc).ok());

  broker::Producer producer(broker, fabric, "edge");
  for (int i = 0; i < 100; ++i) {
    broker::Record r;
    r.key = "k" + std::to_string(i);
    r.value = Bytes(256, 0x5);
    ASSERT_TRUE(producer.send("t", 0, std::move(r)).ok());
  }
  ASSERT_LE(broker->hot_window_bytes(), 2048u);

  broker::Consumer late(broker, fabric, "cloud", "late-joiner");
  ASSERT_TRUE(late.subscribe({"t"}).ok());
  std::set<std::uint64_t> offsets;
  const auto deadline = Clock::now() + 30s;
  while (offsets.size() < 100 && Clock::now() < deadline) {
    for (const auto& cr : late.poll(100ms)) offsets.insert(cr.offset);
  }
  ASSERT_EQ(offsets.size(), 100u);
  EXPECT_EQ(*offsets.begin(), 0u);
  EXPECT_EQ(*offsets.rbegin(), 99u);
}

}  // namespace
}  // namespace pe::scenario
