// BrokerCluster functional coverage: deterministic sharding, leader
// routing, synchronous + catch-up replication, ack policies, epoch
// fencing, and the Producer/Consumer pair over a ClusterEndpoint.
#include "cluster/broker_cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "cluster/cluster_endpoint.h"
#include "cluster/shard_map.h"

namespace pe::cluster {
namespace {

using namespace std::chrono_literals;

broker::Record make_record(const std::string& key, std::size_t value_size = 32,
                           std::uint8_t fill = 0x5a) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

/// Spins (wall-bounded) until `pred` holds; cluster timings are a few
/// emulated milliseconds, so two wall seconds is generous.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds wall_budget = 2000ms) {
  Stopwatch sw;
  while (sw.elapsed_ms() < static_cast<double>(wall_budget.count())) {
    if (pred()) return true;
    Clock::sleep_exact(1ms);
  }
  return pred();
}

ClusterOptions fast_options(std::uint32_t brokers = 3,
                            std::uint32_t rf = 3) {
  ClusterOptions o;
  o.brokers = brokers;
  o.replication_factor = rf;
  o.heartbeat_interval = 1ms;
  o.session_timeout = 6ms;
  o.ack_timeout = 40ms;
  return o;
}

TEST(ShardMapTest, DeterministicAcrossCalls) {
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(assign_replicas("telemetry", p, 5, 3),
              assign_replicas("telemetry", p, 5, 3));
  }
  EXPECT_EQ(stable_hash("telemetry"), stable_hash("telemetry"));
  EXPECT_NE(stable_hash("telemetry"), stable_hash("telemetrz"));
}

TEST(ShardMapTest, ReplicaSetsAreDistinctAndCapped) {
  auto replicas = assign_replicas("t", 0, 5, 3);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(std::set<BrokerId>(replicas.begin(), replicas.end()).size(), 3u);
  // RF capped at the broker count.
  EXPECT_EQ(assign_replicas("t", 0, 2, 3).size(), 2u);
  EXPECT_TRUE(assign_replicas("t", 0, 0, 3).empty());
}

TEST(ShardMapTest, LeadersRotateAcrossPartitions) {
  // Consecutive partitions anchor at consecutive ring positions, so a
  // multi-partition topic spreads its leaders over the cluster.
  std::set<BrokerId> leaders;
  for (std::uint32_t p = 0; p < 5; ++p) {
    leaders.insert(assign_replicas("events", p, 5, 3)[0]);
  }
  EXPECT_EQ(leaders.size(), 5u);
}

TEST(ClusterTest, CreateTopicAssignsLeadersAndReplicas) {
  BrokerCluster cluster(fast_options());
  ClusterTopicConfig four;
  four.partitions = 4;
  ASSERT_TRUE(cluster.create_topic("events", four).ok());
  EXPECT_TRUE(cluster.has_topic("events"));
  EXPECT_EQ(cluster.partition_count("events"), 4u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    auto meta = cluster.metadata("events", p);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta.value().replicas.size(), 3u);
    EXPECT_NE(meta.value().leader, kNoBroker);
    EXPECT_EQ(meta.value().epoch, 1u);
    // The leader is the preferred (first) replica on a fresh cluster.
    EXPECT_EQ(meta.value().leader, meta.value().replicas[0]);
  }
  // The offsets topic exists on every member.
  EXPECT_TRUE(cluster.has_topic(kOffsetsTopic));
  for (BrokerId id = 0; id < cluster.broker_count(); ++id) {
    EXPECT_TRUE(cluster.broker(id)->has_topic(kOffsetsTopic));
  }
}

TEST(ClusterTest, ProduceViaNonLeaderFailsNotLeaderAndIsTransient) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto leader = cluster.leader("events", 0);
  ASSERT_TRUE(leader.ok());
  const BrokerId wrong = (leader.value() + 1) % cluster.broker_count();
  auto produced = cluster.produce(wrong, "events", 0, {make_record("k")});
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kNotLeader);
  // Clients treat NOT_LEADER as transient: refresh metadata and retry.
  EXPECT_TRUE(produced.status().is_transient());
}

TEST(ClusterTest, ReplicationConvergesWithIdenticalContent) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto leader = cluster.leader("events", 0);
  ASSERT_TRUE(leader.ok());
  std::vector<broker::Record> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(make_record("k" + std::to_string(i), 64,
                                static_cast<std::uint8_t>(i)));
  }
  auto produced = cluster.produce(leader.value(), "events", 0,
                                  std::move(batch), AckPolicy::kAll);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  ASSERT_TRUE(
      wait_until([&] { return cluster.replicas_converged("events", 0); }));

  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  broker::FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 100;
  std::vector<std::vector<broker::ConsumedRecord>> per_replica;
  for (BrokerId r : meta.value().replicas) {
    auto fetched = cluster.broker(r)->fetch("events", 0, spec);
    ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
    per_replica.push_back(std::move(fetched).value());
  }
  for (std::size_t r = 1; r < per_replica.size(); ++r) {
    ASSERT_EQ(per_replica[r].size(), per_replica[0].size());
    for (std::size_t i = 0; i < per_replica[0].size(); ++i) {
      EXPECT_EQ(per_replica[r][i].offset, per_replica[0][i].offset);
      EXPECT_EQ(per_replica[r][i].record.key, per_replica[0][i].record.key);
      EXPECT_EQ(per_replica[r][i].record.value.to_bytes(),
                per_replica[0][i].record.value.to_bytes());
    }
  }
  // Everything quorum-replicated => fully readable.
  auto hw = cluster.high_watermark("events", 0);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value(), 50u);
}

TEST(ClusterTest, QuorumAcksTolerateOneIsolatedFollowerButNotTwo) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }
  ASSERT_EQ(followers.size(), 2u);

  ASSERT_TRUE(cluster.set_broker_isolated(followers[0], true).ok());
  auto produced = cluster.produce(leader, "events", 0, {make_record("a")},
                                  AckPolicy::kQuorum);
  EXPECT_TRUE(produced.ok()) << produced.status().to_string();

  ASSERT_TRUE(cluster.set_broker_isolated(followers[1], true).ok());
  produced = cluster.produce(leader, "events", 0, {make_record("b")},
                             AckPolicy::kQuorum);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(produced.status().is_transient());

  // acks=leader still succeeds with the whole quorum gone.
  produced = cluster.produce(leader, "events", 0, {make_record("c")},
                             AckPolicy::kLeader);
  EXPECT_TRUE(produced.ok()) << produced.status().to_string();
}

TEST(ClusterTest, HighWatermarkHidesUnreplicatedRecords) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) ASSERT_TRUE(cluster.set_broker_isolated(r, true).ok());
  }
  auto produced = cluster.produce(leader, "events", 0, {make_record("a")},
                                  AckPolicy::kLeader);
  ASSERT_TRUE(produced.ok());
  // On the leader but on no follower: invisible to consumers.
  auto hw = cluster.high_watermark("events", 0);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value(), 0u);
  broker::FetchSpec spec;
  spec.offset = 0;
  auto fetched = cluster.fetch(leader, "events", 0, spec);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched.value().empty());
  // Replication drains once a follower reconnects; the record surfaces.
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) {
      ASSERT_TRUE(cluster.set_broker_isolated(r, false).ok());
      break;
    }
  }
  ASSERT_TRUE(wait_until([&] {
    auto watermark = cluster.high_watermark("events", 0);
    return watermark.ok() && watermark.value() == 1u;
  }));
}

TEST(ClusterTest, StaleEpochCommitIsFenced) {
  BrokerCluster cluster(fast_options());
  const broker::TopicPartition tp{"events", 0};
  ASSERT_TRUE(cluster.create_topic("events").ok());
  const std::uint64_t epoch = cluster.offsets_epoch();
  ASSERT_GT(epoch, 0u);
  EXPECT_TRUE(cluster.commit_offset("g", tp, 10, epoch).ok());
  auto stale = cluster.commit_offset("g", tp, 5, epoch - 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kNotLeader);
  // The fenced commit did not land.
  auto committed = cluster.committed_offset("g", tp);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, 10u);
}

TEST(ClusterClientTest, ProducerRetriesAcrossLeaderKill) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("events").ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  ASSERT_TRUE(producer.send("events", 0, make_record("before")).ok());

  auto leader = cluster->leader("events", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster->kill_broker(leader.value()).ok());

  // The send lands after the failover via the producer's NOT_LEADER/
  // UNAVAILABLE retries with capped backoff — no manual metadata handling.
  auto sent = producer.send("events", 0, make_record("after"));
  ASSERT_TRUE(sent.ok()) << sent.status().to_string();
  EXPECT_GE(cluster->failover_count(), 1u);
  EXPECT_GE(producer.stats().retries, 1u);
  auto new_leader = cluster->leader("events", 0);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_NE(new_leader.value(), leader.value());
}

TEST(ClusterClientTest, ConsumerGroupEndToEnd) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ClusterTopicConfig two;
  two.partitions = 2;
  ASSERT_TRUE(cluster->create_topic("events", two).ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer
                    .send("events", static_cast<std::uint32_t>(i % 2),
                          make_record("k" + std::to_string(i)))
                    .ok());
  }
  broker::Consumer consumer(endpoint, nullptr, "cloud", "readers");
  ASSERT_TRUE(consumer.subscribe({"events"}).ok());
  std::size_t consumed = 0;
  ASSERT_TRUE(wait_until([&] {
    consumed += consumer.poll(5ms).size();
    return consumed >= 40;
  }));
  EXPECT_EQ(consumed, 40u);
  ASSERT_TRUE(consumer.commit().ok());
  // Commits are replicated: every member's __offsets replica converges.
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged(kOffsetsTopic, 0); }));
  const broker::TopicPartition p0{"events", 0};
  const broker::TopicPartition p1{"events", 1};
  auto c0 = cluster->committed_offset("readers", p0);
  auto c1 = cluster->committed_offset("readers", p1);
  ASSERT_TRUE(c0.has_value());
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(*c0 + *c1, 40u);
  // close() left the group.
  consumer.close();
  auto left = endpoint->group_assignment("readers", consumer.id());
  EXPECT_EQ(left.status().code(), StatusCode::kNotFound);
}

TEST(ClusterClientTest, ThrottledProduceIsRetriedTransparently) {
  // Quota buckets refill in emulated time (wall x scale): speed up the
  // wait-out-the-hint half. Declared first so the scale is restored only
  // after the cluster (and its background threads) shut down.
  ScopedTimeScale scale(10.0);
  auto options = fast_options();
  options.admission.default_quota.bytes_per_sec = 20'000.0;
  options.admission.default_quota.burst_seconds = 1.0;
  auto cluster = std::make_shared<BrokerCluster>(options);
  ClusterTopicConfig one;
  one.partitions = 1;
  ASSERT_TRUE(cluster->create_topic("metrics", one).ok());

  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");

  // The first batch is larger than the whole burst depth: admitted
  // against the full bucket, leaving the client's quota in debt...
  std::vector<broker::Record> big;
  for (int i = 0; i < 250; ++i) {
    big.push_back(make_record("k" + std::to_string(i)));
  }
  ASSERT_TRUE(producer.send_batch("metrics", 0, std::move(big)).ok());

  // ...so the next send is throttled at the leader. The throttle is
  // transient: the producer waits out the broker's retry-after hint and
  // succeeds — the caller never sees an error.
  ASSERT_TRUE(producer.send("metrics", 0, make_record("tail")).ok());
  const auto stats = producer.stats();
  EXPECT_EQ(stats.send_errors, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.throttle_waits, 1u);
  EXPECT_EQ(stats.records_sent, 251u);

  // Quotas gate clients only; replication is exempt, so the throttled
  // records still replicate to a full quorum.
  ASSERT_TRUE(wait_until([&] {
    return cluster->replicas_converged("metrics", 0);
  }));
}

TEST(ClusterClientTest, FetchQuotaThrottlesPollAtTheLeader) {
  // The consumer's id reaches the partition leader's fetch quota. 1 MB/s
  // with a 10 kB burst, against 256 kB fetches: the first poll leaves the
  // consumer ~0.25 s in debt, so the next one is refused.
  auto options = fast_options();
  options.admission.default_fetch_quota.bytes_per_sec = 1e6;
  options.admission.default_fetch_quota.burst_seconds = 0.01;
  auto cluster = std::make_shared<BrokerCluster>(options);
  ClusterTopicConfig one;
  one.partitions = 1;
  ASSERT_TRUE(cluster->create_topic("metrics", one).ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer
                    .send("metrics", 0,
                          make_record("k" + std::to_string(i), 20 * 1024))
                    .ok());
  }

  broker::ConsumerConfig config;
  config.max_poll_records = 1000;
  config.fetch_max_bytes = 256 * 1024;
  broker::Consumer consumer(endpoint, nullptr, "cloud", "g", config);
  ASSERT_TRUE(consumer.assign({{"metrics", 0}}).ok());

  Status throttle;
  ASSERT_FALSE(consumer.poll(1s, &throttle).empty());
  ASSERT_TRUE(throttle.ok()) << throttle.to_string();

  EXPECT_TRUE(consumer.poll(50ms, &throttle).empty());
  EXPECT_EQ(throttle.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(throttle.retry_after(), Duration::zero());
  EXPECT_EQ(consumer.stats().throttled_polls, 1u);
  auto leader = cluster->leader("metrics", 0);
  ASSERT_TRUE(leader.ok());
  EXPECT_GE(cluster->broker(leader.value())->stats().fetch_throttled, 1u);
}

TEST(ClusterClientTest, OffsetForTimestampSurvivesLeaderKill) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("events").ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.send("events", 0, make_record("k" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged("events", 0); }));

  auto leader = cluster->leader("events", 0);
  ASSERT_TRUE(leader.ok());
  broker::FetchSpec spec;
  auto records = cluster->fetch(leader.value(), "events", 0, spec);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 10u);
  const std::uint64_t ts = records.value()[5].broker_timestamp_ns;
  auto before = cluster->offset_for_timestamp("events", 0, ts);
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  EXPECT_LE(before.value(), 5u);
  EXPECT_GE(records.value()[before.value()].broker_timestamp_ns, ts);

  // Replicas keep the leader's timestamps, so the new leader gives the
  // same answer.
  ASSERT_TRUE(cluster->kill_broker(leader.value()).ok());
  ASSERT_TRUE(wait_until([&] {
    return cluster->failover_count() >= 1 && cluster->all_partitions_led();
  }));
  auto after = cluster->offset_for_timestamp("events", 0, ts);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_EQ(after.value(), before.value());

  // The consumer's seek_to_timestamp works on the cluster too.
  broker::Consumer consumer(endpoint, nullptr, "cloud", "g-ts");
  const broker::TopicPartition tp{"events", 0};
  ASSERT_TRUE(consumer.assign({tp}).ok());
  ASSERT_TRUE(consumer.seek_to_timestamp(tp, ts).ok());
  EXPECT_EQ(consumer.position(tp).value(), before.value());
}

TEST(ClusterClientTest, ConsumerKeepsDeliveringAcrossLeaderKill) {
  // The consumer polls with a long timeout while the leader dies under a
  // steady producer. Its waiter is parked with the partition, so the
  // election and each later append wake it: no poll sits out its timeout.
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("events").ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  broker::Consumer consumer(endpoint, nullptr, "cloud", "g-kill");
  ASSERT_TRUE(consumer.assign({{"events", 0}}).ok());

  constexpr int kRecords = 20;
  std::thread sender([&] {
    for (int i = 0; i < kRecords; ++i) {
      if (i == kRecords / 2) {
        EXPECT_TRUE(
            cluster->kill_broker(cluster->leader("events", 0).value()).ok());
      }
      EXPECT_TRUE(
          producer.send("events", 0, make_record("k" + std::to_string(i)))
              .ok());
      std::this_thread::sleep_for(2ms);
    }
  });
  std::vector<std::string> keys;
  Stopwatch total;
  while (keys.size() < kRecords && total.elapsed_ms() < 10'000.0) {
    Stopwatch poll;
    for (const auto& r : consumer.poll(2s)) {
      if (keys.empty() || keys.back() != r.record.key) {
        keys.push_back(r.record.key);
      }
    }
    EXPECT_LT(poll.elapsed_ms(), 1000.0);
  }
  sender.join();
  EXPECT_GE(cluster->failover_count(), 1u);
  ASSERT_EQ(keys.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(keys[i], "k" + std::to_string(i));
  }
}

TEST(ClusterClientTest, LatestConsumerOnLeaderlessPartitionDoesNotRewind) {
  // RF 1: killing the only replica leaves the partition leaderless.
  auto cluster = std::make_shared<BrokerCluster>(fast_options(3, 1));
  ASSERT_TRUE(cluster->create_topic("events").ok());
  auto endpoint = std::make_shared<ClusterEndpoint>(cluster);
  broker::Producer producer(endpoint, nullptr, "edge");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        producer.send("events", 0, make_record("old" + std::to_string(i)))
            .ok());
  }
  const BrokerId leader = cluster->leader("events", 0).value();
  ASSERT_TRUE(cluster->kill_broker(leader).ok());
  ASSERT_TRUE(wait_until(
      [&] { return cluster->leader("events", 0).value() == kNoBroker; }));

  broker::ConsumerConfig config;
  config.offset_reset = broker::OffsetReset::kLatest;
  broker::Consumer consumer(endpoint, nullptr, "cloud", "g-latest", config);
  ASSERT_TRUE(consumer.subscribe({"events"}).ok());
  const broker::TopicPartition tp{"events", 0};
  std::vector<std::string> keys;
  auto drain = [&] {
    for (const auto& r : consumer.poll(1ms)) keys.push_back(r.record.key);
  };
  // No leader, so no end to start from: the position stays unresolved
  // rather than defaulting to offset 0.
  drain();
  EXPECT_EQ(consumer.position(tp).status().code(), StatusCode::kUnavailable);

  // Once the partition is led again a poll resolves the latest end.
  ASSERT_TRUE(cluster->restore_broker(leader).ok());
  ASSERT_TRUE(wait_until([&] {
    drain();
    return consumer.position(tp).ok();
  }));
  EXPECT_EQ(consumer.position(tp).value(), 5u);

  // Only what is produced from now on is delivered: no history replay.
  ASSERT_TRUE(producer.send("events", 0, make_record("new")).ok());
  ASSERT_TRUE(wait_until([&] {
    drain();
    return !keys.empty();
  }));
  EXPECT_EQ(keys, std::vector<std::string>{"new"});
}

}  // namespace
}  // namespace pe::cluster
