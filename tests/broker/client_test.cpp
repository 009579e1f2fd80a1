// End-to-end producer/consumer client tests over a fabric. Scenarios that
// hold on every endpoint also run against a replicated cluster (see
// client_targets.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "client_targets.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "network/fabric.h"

namespace pe::broker {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<net::Fabric>();
    ASSERT_TRUE(fabric_->add_site({.id = "cloud"}).ok());
    ASSERT_TRUE(fabric_->add_site({.id = "edge"}).ok());
    net::LinkSpec spec;
    spec.from = "edge";
    spec.to = "cloud";
    spec.latency_min = spec.latency_max = std::chrono::microseconds(200);
    spec.bandwidth_min_bps = spec.bandwidth_max_bps = 1e9;
    ASSERT_TRUE(fabric_->add_bidirectional_link(spec).ok());

    broker_ = std::make_shared<Broker>("cloud");
    ASSERT_TRUE(broker_->create_topic("t", TopicConfig{.partitions = 2}).ok());
  }

  /// The fixture's broker and a 3-broker cluster, both with topic "t".
  std::vector<ClientTarget> targets() {
    return client_targets(broker_, fabric_, "t", 2);
  }

  Record make_record(const std::string& key, std::size_t size = 16) {
    Record r;
    r.key = key;
    r.value = Bytes(size, 0x7);
    return r;
  }

  std::shared_ptr<net::Fabric> fabric_;
  std::shared_ptr<Broker> broker_;
};

TEST_F(ClientTest, ProduceConsumeRoundTrip) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    auto meta = producer.send("t", 0, make_record("hello"));
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta.value().offset, 0u);
    if (target.fabric) {
      EXPECT_GT(meta.value().transfer.propagation, Duration::zero());
    }

    Consumer consumer(target.endpoint, target.fabric, "cloud", "g");
    ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
    auto records = consumer.poll(std::chrono::milliseconds(100));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].record.key, "hello");
    EXPECT_EQ(consumer.stats().records_received, 1u);
  }
}

TEST_F(ClientTest, KeyedSendIsStablePartition) {
  Producer producer(broker_, fabric_, "edge");
  auto m1 = producer.send("t", make_record("device-1"));
  auto m2 = producer.send("t", make_record("device-1"));
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m1.value().partition, m2.value().partition);
  EXPECT_EQ(m2.value().offset, m1.value().offset + 1);
}

TEST_F(ClientTest, SendBatchIsOneTransfer) {
  Producer producer(broker_, fabric_, "edge");
  std::vector<Record> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(make_record("k"));
  auto meta = producer.send_batch("t", 1, std::move(batch));
  ASSERT_TRUE(meta.ok());
  const auto stats = fabric_->link_stats();
  EXPECT_EQ(stats.at("edge->cloud").transfers, 1u);
  EXPECT_EQ(producer.stats().records_sent, 10u);
}

TEST_F(ClientTest, EmptyBatchRejected) {
  Producer producer(broker_, fabric_, "edge");
  EXPECT_EQ(producer.send_batch("t", 0, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, SendToUnknownTopicCountsError) {
  Producer producer(broker_, fabric_, "edge");
  EXPECT_FALSE(producer.send("nope", make_record("k")).ok());
  EXPECT_EQ(producer.stats().send_errors, 1u);
}

TEST_F(ClientTest, SendWithoutLinkFailsAtOnce) {
  // A missing link is a topology error, not an outage: the send fails
  // FAILED_PRECONDITION on its first attempt instead of retrying the
  // whole budget.
  ASSERT_TRUE(fabric_->add_site({.id = "island"}).ok());
  Producer producer(broker_, fabric_, "island");
  auto sent = producer.send("t", 0, make_record("k"));
  EXPECT_EQ(sent.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(producer.stats().retries, 0u);
  EXPECT_EQ(producer.stats().send_errors, 1u);
}

TEST_F(ClientTest, ThrottledSendIsRetriedToSuccess) {
  // Quota buckets refill in emulated time: speed up the waits. Declared
  // first so the scale is restored only after the targets shut down.
  ScopedTimeScale scale(100.0);
  AdmissionConfig admission;
  admission.default_quota.bytes_per_sec = 20'000.0;
  admission.default_quota.burst_seconds = 1.0;
  BrokerOptions options;
  options.admission = admission;
  auto broker = std::make_shared<Broker>("cloud", options);
  ASSERT_TRUE(broker->create_topic("t", TopicConfig{.partitions = 2}).ok());

  for (const auto& target : client_targets(broker, fabric_, "t", 2, {},
                                           admission)) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    // A batch larger than the whole burst depth is admitted against the
    // full bucket and leaves the client's default quota in debt...
    std::vector<Record> big;
    for (int i = 0; i < 250; ++i) {
      big.push_back(make_record("k" + std::to_string(i), 200));
    }
    ASSERT_TRUE(producer.send_batch("t", 0, std::move(big)).ok());

    // ...so the next send is throttled. The producer waits out the
    // broker's retry-after hint and succeeds, on either endpoint.
    auto sent = producer.send("t", 0, make_record("tail"));
    ASSERT_TRUE(sent.ok()) << sent.status().to_string();
    EXPECT_EQ(sent.value().offset, 250u);
    const auto stats = producer.stats();
    EXPECT_EQ(stats.send_errors, 0u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_GE(stats.throttle_waits, 1u);
    EXPECT_EQ(stats.records_sent, 251u);
    EXPECT_EQ(target.endpoint->end_offset("t", 0).value(), 251u);
  }
}

TEST_F(ClientTest, SubscribeSpreadsPartitionsAcrossConsumers) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Consumer c1(target.endpoint, target.fabric, "cloud", "g");
    Consumer c2(target.endpoint, target.fabric, "cloud", "g");
    ASSERT_TRUE(c1.subscribe({"t"}).ok());
    ASSERT_TRUE(c2.subscribe({"t"}).ok());
    // Trigger rebalance pickup.
    (void)c1.poll(std::chrono::milliseconds(10));
    (void)c2.poll(std::chrono::milliseconds(10));
    EXPECT_EQ(c1.assignment().size() + c2.assignment().size(), 2u);
  }
}

TEST_F(ClientTest, PollDrainsAllPartitions) {
  Producer producer(broker_, fabric_, "edge");
  ASSERT_TRUE(producer.send("t", 0, make_record("a")).ok());
  ASSERT_TRUE(producer.send("t", 1, make_record("b")).ok());

  Consumer consumer(broker_, fabric_, "cloud", "g");
  ASSERT_TRUE(consumer.subscribe({"t"}).ok());
  std::size_t total = 0;
  for (int i = 0; i < 10 && total < 2; ++i) {
    total += consumer.poll(std::chrono::milliseconds(50)).size();
  }
  EXPECT_EQ(total, 2u);
}

TEST_F(ClientTest, OffsetResetLatestSkipsOldData) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    ASSERT_TRUE(producer.send("t", 0, make_record("old")).ok());

    ConsumerConfig config;
    config.offset_reset = OffsetReset::kLatest;
    Consumer consumer(target.endpoint, target.fabric, "cloud", "g-latest",
                      config);
    ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
    EXPECT_TRUE(consumer.poll(std::chrono::milliseconds(20)).empty());

    ASSERT_TRUE(producer.send("t", 0, make_record("new")).ok());
    auto records = consumer.poll(std::chrono::milliseconds(100));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].record.key, "new");
  }
}

TEST_F(ClientTest, CommittedOffsetsResumeAfterRestart) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(producer.send("t", 0, make_record(std::to_string(i))).ok());
    }
    {
      Consumer consumer(target.endpoint, target.fabric, "cloud", "g-resume");
      ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
      auto records = consumer.poll(std::chrono::milliseconds(100));
      ASSERT_GE(records.size(), 1u);  // committed on close
    }
    Consumer resumed(target.endpoint, target.fabric, "cloud", "g-resume");
    ASSERT_TRUE(resumed.assign({{"t", 0}}).ok());
    // All four were fetched and committed by the first consumer.
    EXPECT_TRUE(resumed.poll(std::chrono::milliseconds(20)).empty());
  }
}

// A committed offset that retention has since dropped is out of range.
// The consumer resets it by offset_reset (earliest: the log start), as
// Kafka's auto.offset.reset does, instead of re-resolving to the same
// committed offset on every sweep and never delivering again.
TEST_F(ClientTest, CommittedOffsetBelowLogStartResetsByPolicy) {
  RetentionPolicy retention;
  retention.max_records = 5;
  ASSERT_TRUE(broker_
                  ->create_topic("r", TopicConfig{.partitions = 1,
                                                  .retention = retention})
                  .ok());
  for (const auto& target :
       client_targets(broker_, fabric_, "r", 1, retention)) {
    SCOPED_TRACE(target.name);
    ASSERT_TRUE(target.endpoint->commit_offset("g", {"r", 0}, 0).ok());
    Producer producer(target.endpoint, target.fabric, "edge");
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(producer.send("r", 0, make_record("k")).ok());
    }
    auto log_start = target.endpoint->log_start_offset("r", 0);
    ASSERT_TRUE(log_start.ok());
    ASSERT_EQ(log_start.value(), 15u);

    Consumer consumer(target.endpoint, target.fabric, "cloud", "g");
    ASSERT_TRUE(consumer.assign({{"r", 0}}).ok());
    std::vector<ConsumedRecord> got;
    for (int i = 0; i < 5 && got.size() < 5; ++i) {
      auto records = consumer.poll(std::chrono::milliseconds(20));
      got.insert(got.end(), records.begin(), records.end());
    }
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got.front().offset, 15u);
    EXPECT_EQ(got.back().offset, 19u);

    // latest: the reset skips to the end, so only new records arrive.
    ASSERT_TRUE(target.endpoint->commit_offset("g-latest", {"r", 0}, 0).ok());
    ConsumerConfig config;
    config.offset_reset = OffsetReset::kLatest;
    Consumer latest(target.endpoint, target.fabric, "cloud", "g-latest",
                    config);
    ASSERT_TRUE(latest.assign({{"r", 0}}).ok());
    EXPECT_TRUE(latest.poll(std::chrono::milliseconds(20)).empty());
    ASSERT_TRUE(producer.send("r", 0, make_record("new")).ok());
    got.clear();
    for (int i = 0; i < 5 && got.empty(); ++i) {
      got = latest.poll(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got.front().offset, 20u);
  }
}

TEST_F(ClientTest, SeekRewindsPosition) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(producer.send("t", 0, make_record(std::to_string(i))).ok());
    }
    ConsumerConfig config;
    config.auto_commit = false;
    Consumer consumer(target.endpoint, target.fabric, "cloud", "g-seek",
                      config);
    ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
    ASSERT_EQ(consumer.poll(std::chrono::milliseconds(100)).size(), 3u);

    ASSERT_TRUE(consumer.seek({"t", 0}, 1).ok());
    auto again = consumer.poll(std::chrono::milliseconds(100));
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].offset, 1u);
  }
}

TEST_F(ClientTest, SeekUnassignedPartitionFails) {
  Consumer consumer(broker_, fabric_, "cloud", "g");
  EXPECT_EQ(consumer.seek({"t", 0}, 0).code(), StatusCode::kNotFound);
}

TEST_F(ClientTest, AssignValidatesTopicAndPartition) {
  Consumer consumer(broker_, fabric_, "cloud", "g");
  EXPECT_EQ(consumer.assign({{"nope", 0}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(consumer.assign({{"t", 7}}).code(), StatusCode::kOutOfRange);
}

TEST_F(ClientTest, PositionTracksConsumption) {
  Producer producer(broker_, fabric_, "edge");
  ASSERT_TRUE(producer.send("t", 0, make_record("a")).ok());
  Consumer consumer(broker_, fabric_, "cloud", "g");
  ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
  EXPECT_EQ(consumer.position({"t", 0}).value(), 0u);
  ASSERT_EQ(consumer.poll(std::chrono::milliseconds(100)).size(), 1u);
  EXPECT_EQ(consumer.position({"t", 0}).value(), 1u);
  EXPECT_EQ(consumer.position({"t", 1}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ClientTest, CloseLeavesGroupAndRebalances) {
  auto c1 = std::make_unique<Consumer>(broker_, fabric_, "cloud", "g");
  Consumer c2(broker_, fabric_, "cloud", "g");
  ASSERT_TRUE(c1->subscribe({"t"}).ok());
  ASSERT_TRUE(c2.subscribe({"t"}).ok());
  c1.reset();  // destructor leaves the group
  (void)c2.poll(std::chrono::milliseconds(20));
  EXPECT_EQ(c2.assignment().size(), 2u);
}

TEST_F(ClientTest, PollTimeoutWithNoDataReturnsEmpty) {
  Consumer consumer(broker_, fabric_, "cloud", "g");
  ASSERT_TRUE(consumer.subscribe({"t"}).ok());
  Stopwatch sw;
  EXPECT_TRUE(consumer.poll(std::chrono::milliseconds(30)).empty());
  EXPECT_GE(sw.elapsed_ms(), 25.0);
}

TEST_F(ClientTest, IdleConsumerWakesOnAnyAssignedPartition) {
  // One consumer holds both partitions and is already waiting in poll()
  // when a record lands on one of them, each partition in turn: the
  // record is delivered as soon as it is appended, whichever partition
  // it lands on.
  using namespace std::chrono_literals;
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    Consumer consumer(target.endpoint, target.fabric, "cloud", "g-idle");
    ASSERT_TRUE(consumer.assign({{"t", 0}, {"t", 1}}).ok());
    std::vector<double> delay_ms[2];
    for (int trial = 0; trial < 24; ++trial) {
      const std::uint32_t partition = trial % 2;
      std::thread sender([&] {
        std::this_thread::sleep_for(2ms);  // the consumer is waiting by now
        EXPECT_TRUE(producer.send("t", partition, make_record("k")).ok());
      });
      const auto records = consumer.poll(1s);
      const std::uint64_t received_ns = Clock::now_ns();
      sender.join();
      ASSERT_EQ(records.size(), 1u);
      EXPECT_EQ(records[0].partition, partition);
      // From the broker's append stamp to the poll's return.
      delay_ms[partition].push_back(
          static_cast<double>(received_ns - records[0].broker_timestamp_ns) /
          1e6);
    }
    for (auto& delays : delay_ms) {
      std::sort(delays.begin(), delays.end());
      EXPECT_LT(delays[delays.size() / 2], 1.0);
    }
  }
}

TEST_F(ClientTest, EvictedConsumerFailsOverWithoutLossOrDuplication) {
  // Kafka-style session failover: a consumer that stops polling is
  // evicted, its partition moves to the survivor, and consumption resumes
  // from the last committed offset — every record delivered exactly once.
  broker_->coordinator().set_session_timeout(std::chrono::milliseconds(150));
  Producer producer(broker_, fabric_, "edge");

  Consumer survivor(broker_, fabric_, "cloud", "g-failover");
  Consumer laggard(broker_, fabric_, "cloud", "g-failover");
  ASSERT_TRUE(survivor.subscribe({"t"}).ok());
  ASSERT_TRUE(laggard.subscribe({"t"}).ok());
  (void)survivor.poll(std::chrono::milliseconds(1));
  (void)laggard.poll(std::chrono::milliseconds(1));
  ASSERT_EQ(survivor.assignment().size() + laggard.assignment().size(), 2u);

  auto key = [](int i) { return "k" + std::to_string(i); };
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.send("t", i % 2, make_record(key(i))).ok());
  }
  std::multiset<std::string> seen;
  auto drain = [&seen](Consumer& consumer) {
    for (const auto& r : consumer.poll(std::chrono::milliseconds(50))) {
      seen.insert(r.record.key);
    }
  };
  // The laggard consumes its share once, then never polls again — it will
  // miss heartbeats and expire. Auto-commit is deferred to the NEXT poll
  // (at-least-once), so give it one empty poll to persist its handoff
  // point; a hard crash without that poll is covered by
  // CrashAfterPollRedeliversUncommittedRecords below.
  drain(laggard);
  (void)laggard.poll(std::chrono::milliseconds(1));
  drain(survivor);

  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(producer.send("t", i % 2, make_record(key(i))).ok());
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (seen.size() < 40 && Clock::now() < deadline) {
    drain(survivor);
  }
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(seen.count(key(i)), 1u) << "record " << key(i);
  }
  // The survivor took over the evicted member's partition.
  EXPECT_EQ(survivor.assignment().size(), 2u);
  EXPECT_EQ(broker_->coordinator().members("g-failover").size(), 1u);
}

TEST_F(ClientTest, AutoCommitIsDeferredToNextPoll) {
  // At-least-once semantics: records handed out by poll() are committed
  // at the START of the next poll, never in the same call that delivered
  // them. A crash between the two polls must leave the offsets
  // uncommitted so the records are redelivered.
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    Producer producer(target.endpoint, target.fabric, "edge");
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(producer.send("t", 0, make_record(std::to_string(i))).ok());
    }
    Consumer consumer(target.endpoint, target.fabric, "cloud", "g-defer");
    ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
    ASSERT_EQ(consumer.poll(std::chrono::milliseconds(100)).size(), 3u);
    // Delivered but not yet committed.
    EXPECT_FALSE(
        target.coordinator().committed_offset("g-defer", {"t", 0}).has_value());
    // The next poll (even an empty one) persists the previous positions.
    (void)consumer.poll(std::chrono::milliseconds(1));
    const auto committed =
        target.coordinator().committed_offset("g-defer", {"t", 0});
    ASSERT_TRUE(committed.has_value());
    EXPECT_EQ(*committed, 3u);
  }
}

TEST_F(ClientTest, CrashAfterPollRedeliversUncommittedRecords) {
  // A consumer that crashes after poll() but before the next poll's
  // deferred auto-commit must NOT lose data: the survivor inherits the
  // partition at the last committed offset and re-reads everything the
  // victim saw but never committed (at-least-once, duplicates allowed).
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    target.set_session_timeout(std::chrono::milliseconds(150));
    Producer producer(target.endpoint, target.fabric, "edge");

    Consumer survivor(target.endpoint, target.fabric, "cloud", "g-crash");
    Consumer victim(target.endpoint, target.fabric, "cloud", "g-crash");
    ASSERT_TRUE(survivor.subscribe({"t"}).ok());
    ASSERT_TRUE(victim.subscribe({"t"}).ok());
    (void)survivor.poll(std::chrono::milliseconds(1));
    (void)victim.poll(std::chrono::milliseconds(1));
    ASSERT_EQ(survivor.assignment().size() + victim.assignment().size(), 2u);

    auto key = [](int i) { return "k" + std::to_string(i); };
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(producer.send("t", i % 2, make_record(key(i))).ok());
    }

    // The victim drains its share once; under deferred auto-commit those
    // positions are NOT yet committed when it crashes.
    std::multiset<std::string> victim_saw;
    for (const auto& r : victim.poll(std::chrono::milliseconds(50))) {
      victim_saw.insert(r.record.key);
    }
    ASSERT_FALSE(victim_saw.empty());
    victim.crash();  // hard stop: no commit, no leave-group

    std::multiset<std::string> survivor_saw;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (survivor_saw.size() < 20 && Clock::now() < deadline) {
      for (const auto& r : survivor.poll(std::chrono::milliseconds(50))) {
        survivor_saw.insert(r.record.key);
      }
    }
    // No loss: the survivor alone re-reads all 20 records — its own 10 plus
    // every record the victim had seen but never committed.
    ASSERT_EQ(survivor_saw.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(survivor_saw.count(key(i)), 1u) << "record " << key(i);
    }
    for (const auto& k : victim_saw) {
      EXPECT_EQ(survivor_saw.count(k), 1u) << "redelivered " << k;
    }
    EXPECT_EQ(survivor.assignment().size(), 2u);
    EXPECT_EQ(target.coordinator().members("g-crash").size(), 1u);
  }
}

TEST_F(ClientTest, FetchChargesDownlink) {
  Producer producer(broker_, fabric_, "edge");
  ASSERT_TRUE(producer.send("t", 0, make_record("k", 1000)).ok());
  Consumer consumer(broker_, fabric_, "edge", "g");  // consumer on edge
  ASSERT_TRUE(consumer.assign({{"t", 0}}).ok());
  ASSERT_EQ(consumer.poll(std::chrono::milliseconds(100)).size(), 1u);
  const auto stats = fabric_->link_stats();
  EXPECT_EQ(stats.at("cloud->edge").transfers, 1u);
  EXPECT_GT(stats.at("cloud->edge").bytes, 1000u);
}

// Regression: fetch_max_bytes bounds the whole poll, not each partition.
// The old code handed every partition the full budget, so a wide
// assignment returned partitions x budget bytes per poll.
TEST_F(ClientTest, PollSharesFetchMaxBytesAcrossPartitions) {
  for (const auto& target : targets()) {
    SCOPED_TRACE(target.name);
    ASSERT_TRUE(target.create_topic("wide", 3).ok());
    Producer producer(target.endpoint, target.fabric, "edge");
    const std::uint64_t wire = make_record("k", 1024).wire_size();
    for (std::uint32_t p = 0; p < 3; ++p) {
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(producer.send("wide", p, make_record("k", 1024)).ok());
      }
    }

    ConsumerConfig config;
    config.fetch_max_bytes = 2 * wire + wire / 2;  // ~2.5 records
    Consumer consumer(target.endpoint, target.fabric, "cloud", "g-budget",
                      config);
    ASSERT_TRUE(consumer.assign({{"wide", 0}, {"wide", 1}, {"wide", 2}}).ok());

    auto first = consumer.poll(std::chrono::milliseconds(100));
    ASSERT_FALSE(first.empty());
    std::uint64_t bytes = 0;
    for (const auto& r : first) bytes += r.record.wire_size();
    // Shared budget: at most ~budget bytes plus one record of overshoot
    // where the residual budget was smaller than a record — never the old
    // 3 x 2.5 records.
    EXPECT_LE(bytes, config.fetch_max_bytes + wire);
    EXPECT_LT(first.size(), 6u);

    // The budget resets per poll, so subsequent polls drain the rest.
    std::size_t total = first.size();
    for (int i = 0; i < 50 && total < 12; ++i) {
      total += consumer.poll(std::chrono::milliseconds(20)).size();
    }
    EXPECT_EQ(total, 12u);
  }
}

}  // namespace
}  // namespace pe::broker
