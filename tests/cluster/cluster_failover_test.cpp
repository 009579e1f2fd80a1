// Failover correctness: the guarantees DESIGN.md §10 promises, exercised
// the hard way — leaders killed mid-pipeline, committed offsets raced
// against offsets-leader elections, torn durable tails, and divergent
// deposed leaders.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_endpoint.h"
#include "fault/chaos_engine.h"

namespace pe::cluster {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

broker::Record make_record(const std::string& key, std::size_t value_size = 64,
                           std::uint8_t fill = 0x7e) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds wall_budget = 5000ms) {
  Stopwatch sw;
  while (sw.elapsed_ms() < static_cast<double>(wall_budget.count())) {
    if (pred()) return true;
    Clock::sleep_exact(1ms);
  }
  return pred();
}

ClusterOptions fast_options() {
  ClusterOptions o;
  o.brokers = 3;
  o.replication_factor = 3;
  o.heartbeat_interval = 1ms;
  o.session_timeout = 6ms;
  o.ack_timeout = 60ms;
  return o;
}

/// Reads the whole committed log of a partition through the cluster and
/// returns offset -> record key.
std::map<std::uint64_t, std::string> committed_log(
    BrokerCluster& cluster, const std::string& topic,
    std::uint32_t partition) {
  std::map<std::uint64_t, std::string> out;
  auto leader = cluster.leader(topic, partition);
  if (!leader.ok() || leader.value() == kNoBroker) return out;
  auto start = cluster.log_start_offset(topic, partition);
  auto hw = cluster.high_watermark(topic, partition);
  if (!start.ok() || !hw.ok()) return out;
  std::uint64_t offset = start.value();
  while (offset < hw.value()) {
    broker::FetchSpec spec;
    spec.offset = offset;
    spec.max_records = 512;
    auto fetched = cluster.fetch(leader.value(), topic, partition, spec);
    if (!fetched.ok() || fetched.value().empty()) break;
    for (const auto& r : fetched.value()) {
      out.emplace(r.offset, r.record.key);
      offset = r.offset + 1;
    }
  }
  return out;
}

class ClusterFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_cluster_failover_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

// The acceptance scenario: a partition leader dies mid-pipeline while a
// producer streams records at acks=quorum and a consumer group commits.
// Nothing that was acknowledged — record or offset commit — may be lost,
// and the cluster must recover within the bounded failover window.
TEST_F(ClusterFailoverTest, LeaderKillZeroCommittedOffsetLoss) {
  auto options = fast_options();
  options.durable_root = dir_;
  auto cluster = std::make_shared<BrokerCluster>(options);
  ASSERT_TRUE(cluster->create_topic("pipeline").ok());
  auto initial_leader = cluster->leader("pipeline", 0);
  ASSERT_TRUE(initial_leader.ok());
  const std::string leader_name =
      "broker-" + std::to_string(initial_leader.value());
  const broker::TopicPartition tp{"pipeline", 0};

  std::atomic<bool> stop{false};
  std::mutex acked_mutex;
  std::vector<std::pair<std::uint64_t, std::string>> acked;
  std::atomic<std::uint64_t> acked_count{0};
  std::thread producer_thread([&] {
    broker::Producer producer(
        std::make_shared<ClusterEndpoint>(cluster, AckPolicy::kQuorum),
        nullptr, "edge");
    for (std::uint64_t i = 0; !stop.load(); ++i) {
      const std::string key = "m" + std::to_string(i);
      auto sent = producer.send("pipeline", 0, make_record(key));
      if (sent.ok()) {
        std::lock_guard<std::mutex> hold(acked_mutex);
        acked.emplace_back(sent.value().offset, key);
        acked_count.fetch_add(1);
      }
    }
  });

  // The consumer commits after every poll; `committed_floor` tracks the
  // highest position whose commit returned OK — the cluster owes us at
  // least that much after any failover.
  std::atomic<std::uint64_t> committed_floor{0};
  std::thread consumer_thread([&] {
    broker::ConsumerConfig config;
    config.auto_commit = false;
    broker::Consumer consumer(std::make_shared<ClusterEndpoint>(cluster),
                              nullptr, "cloud", "pipeline-readers", config);
    if (!consumer.subscribe({"pipeline"}).ok()) return;
    while (!stop.load()) {
      (void)consumer.poll(2ms);
      if (consumer.commit().ok()) {
        if (auto pos = consumer.position(tp); pos.ok()) {
          committed_floor.store(pos.value());
        }
      }
    }
    consumer.close();
  });

  // Let the pipeline build up steam, then kill the leader through the
  // chaos engine's broker-targeted crash.
  ASSERT_TRUE(wait_until([&] { return acked_count.load() >= 50; }));
  fault::FaultPlan plan;
  plan.crash_cluster_broker(Duration::zero(), leader_name);
  fault::ChaosEngine engine(std::move(plan));
  engine.set_broker_cluster(cluster);
  ASSERT_TRUE(engine.start().ok());
  engine.join();
  ASSERT_FALSE(cluster->broker_alive(initial_leader.value()));

  // Bounded failover: a new leader within the session timeout plus a few
  // controller ticks (all wall-bounded here).
  ASSERT_TRUE(wait_until([&] {
    return cluster->failover_count() >= 1 && cluster->all_partitions_led();
  }));
  auto new_leader = cluster->leader("pipeline", 0);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_NE(new_leader.value(), initial_leader.value());

  // The pipeline keeps moving after the failover.
  const std::uint64_t at_failover = acked_count.load();
  ASSERT_TRUE(wait_until([&] {
    return acked_count.load() >= at_failover + 50;
  }));
  stop.store(true);
  producer_thread.join();
  consumer_thread.join();

  // Zero acked-record loss: every offset the producer was given back is
  // still present on the new leader with the content that was sent.
  const auto log = committed_log(*cluster, "pipeline", 0);
  std::vector<std::pair<std::uint64_t, std::string>> acked_copy;
  {
    std::lock_guard<std::mutex> hold(acked_mutex);
    acked_copy = acked;
  }
  ASSERT_GE(acked_copy.size(), 100u);
  for (const auto& [offset, key] : acked_copy) {
    auto it = log.find(offset);
    ASSERT_NE(it, log.end()) << "acked offset " << offset << " lost";
    EXPECT_EQ(it->second, key) << "content diverged at offset " << offset;
  }

  // Zero committed-offset loss: the group's offset never regressed below
  // the highest successfully committed position.
  if (committed_floor.load() > 0) {
    auto committed = cluster->committed_offset("pipeline-readers", tp);
    ASSERT_TRUE(committed.has_value());
    EXPECT_GE(*committed, committed_floor.load());
  }
}

// Concurrent group commits racing two consecutive offsets-leader
// failovers: replay on the new leader must not resurrect stale offsets —
// each group's committed offset stays >= its highest OK-acked commit.
TEST_F(ClusterFailoverTest, OffsetsReplayUnderCommitRace) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("events").ok());
  const std::vector<std::string> groups = {"group-a", "group-b"};
  const broker::TopicPartition tp{"events", 0};

  std::atomic<bool> stop{false};
  std::vector<std::atomic<std::uint64_t>> max_ok(groups.size());
  std::vector<std::thread> committers;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    committers.emplace_back([&, g] {
      // One attempt per call, each with a fresh epoch.
      ClusterEndpoint endpoint(cluster);
      for (std::uint64_t offset = 1; !stop.load(); ++offset) {
        if (endpoint.commit_offset(groups[g], tp, offset).ok()) {
          max_ok[g].store(offset);
        }
      }
    });
  }

  auto check_floors = [&] {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::uint64_t floor = max_ok[g].load();
      if (floor == 0) continue;
      auto committed = cluster->committed_offset(groups[g], tp);
      ASSERT_TRUE(committed.has_value()) << groups[g];
      EXPECT_GE(*committed, floor) << groups[g] << " regressed after replay";
    }
  };

  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(wait_until([&] {
      for (auto& m : max_ok) {
        if (m.load() == 0) return false;
      }
      return true;
    }));
    auto leader = cluster->leader(kOffsetsTopic, 0);
    ASSERT_TRUE(leader.ok());
    const std::uint64_t epoch_before = cluster->offsets_epoch();
    const std::uint64_t failovers_before = cluster->failover_count();
    ASSERT_TRUE(cluster->kill_broker(leader.value()).ok());
    ASSERT_TRUE(wait_until([&] {
      return cluster->failover_count() > failovers_before &&
             cluster->all_partitions_led();
    }));
    // Epoch fencing: the pre-failover epoch is dead.
    EXPECT_GT(cluster->offsets_epoch(), epoch_before);
    auto stale = cluster->commit_offset(groups[0], tp, 1, epoch_before);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.code(), StatusCode::kNotLeader);
    check_floors();
    // Bring the member back before the next round so a quorum survives
    // the second kill.
    ASSERT_TRUE(cluster->restore_broker(leader.value()).ok());
  }

  // Let commits land on the post-failover leader, then final check.
  const std::uint64_t resume_target = max_ok[0].load() + 5;
  ASSERT_TRUE(wait_until([&] { return max_ok[0].load() >= resume_target; }));
  stop.store(true);
  for (auto& t : committers) t.join();
  check_floors();
}

// A follower that died mid-write recovers with a torn tail, truncates it,
// and catches back up — served from the leader's mmap'd segments (the
// recovered leader's hot window is empty, so every catch-up read is a
// cold segment read).
TEST_F(ClusterFailoverTest, FollowerCatchUpFromRecoveredSegments) {
  auto options = fast_options();
  options.durable_root = dir_;
  options.storage.segment_max_bytes = 4096;  // force several segments
  options.storage.flush_every_n = 64;        // leave an unsynced tail
  auto cluster = std::make_shared<BrokerCluster>(options);
  ASSERT_TRUE(cluster->create_topic("wal").ok());
  auto meta = cluster->metadata("wal", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }
  ASSERT_EQ(followers.size(), 2u);

  // One follower misses everything; quorum = leader + the other follower.
  ASSERT_TRUE(cluster->set_broker_isolated(followers[1], true).ok());
  for (int i = 0; i < 200; ++i) {
    auto produced =
        cluster->produce(leader, "wal", 0,
                         {make_record("k" + std::to_string(i), 100)},
                         AckPolicy::kQuorum);
    ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  }

  // Power-cut the whole quorum: the leader loses most of its unsynced
  // tail (torn batch for recovery to truncate), the caught-up follower
  // keeps its full log on disk.
  ASSERT_TRUE(cluster->kill_broker(leader).ok());
  ASSERT_TRUE(cluster->kill_broker(followers[0]).ok());
  ASSERT_TRUE(cluster->restore_broker(followers[0], /*keep_fraction=*/1.0)
                  .ok());
  ASSERT_TRUE(wait_until([&] { return cluster->all_partitions_led(); }));
  auto new_leader = cluster->leader("wal", 0);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_EQ(new_leader.value(), followers[0]);

  // The stale follower reconnects and the torn-tail leader rejoins; both
  // refill from the recovered leader's segment files.
  ASSERT_TRUE(cluster->set_broker_isolated(followers[1], false).ok());
  ASSERT_TRUE(cluster->restore_broker(leader, /*keep_fraction=*/0.35).ok());
  ASSERT_TRUE(wait_until([&] {
    return cluster->replicas_converged("wal", 0);
  }));

  // All three replicas hold the identical 200-record log.
  broker::FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 400;
  for (BrokerId r : meta.value().replicas) {
    auto fetched = cluster->broker(r)->fetch("wal", 0, spec);
    ASSERT_TRUE(fetched.ok())
        << "replica " << r << ": " << fetched.status().to_string();
    ASSERT_EQ(fetched.value().size(), 200u) << "replica " << r;
    for (std::size_t i = 0; i < fetched.value().size(); ++i) {
      ASSERT_EQ(fetched.value()[i].offset, i) << "replica " << r;
      ASSERT_EQ(fetched.value()[i].record.key, "k" + std::to_string(i))
          << "replica " << r;
    }
  }
  auto hw = cluster->high_watermark("wal", 0);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value(), 200u);
}

// A deposed leader holding acks=leader records the quorum never saw must
// truncate them before rejoining: the post-failover log wins, and the
// casualties never reappear on any replica. The orphans arrive as
// `orphan_batch`-record produces; the followers hold the first
// `replicated_prefix` of them (fetched before the cut), so the new epoch
// starts at 20 + replicated_prefix.
void expect_divergent_suffix_truncated(const ClusterOptions& options,
                                       int orphan_batch,
                                       int replicated_prefix) {
  auto cluster = std::make_shared<BrokerCluster>(options);
  ASSERT_TRUE(cluster->create_topic("div").ok());
  auto meta = cluster->metadata("div", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }

  std::vector<broker::Record> base;
  for (int i = 0; i < 20; ++i) {
    base.push_back(make_record("base-" + std::to_string(i)));
  }
  auto produced =
      cluster->produce(leader, "div", 0, std::move(base), AckPolicy::kAll);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  ASSERT_TRUE(wait_until([&] { return cluster->replicas_converged("div", 0); }));

  // Cut the leader off from its followers and let it take acks=leader
  // records nobody replicates.
  for (BrokerId f : followers) {
    ASSERT_TRUE(cluster->set_broker_isolated(f, true).ok());
  }
  for (int i = 0; i < 5; i += orphan_batch) {
    std::vector<broker::Record> orphans;
    for (int j = i; j < i + orphan_batch; ++j) {
      orphans.push_back(make_record("lost-" + std::to_string(j)));
    }
    auto orphaned = cluster->produce(leader, "div", 0, std::move(orphans),
                                     AckPolicy::kLeader);
    ASSERT_TRUE(orphaned.ok());
  }
  EXPECT_EQ(cluster->broker(leader)->end_offset("div", 0).value(), 25u);
  if (replicated_prefix > 0) {
    broker::FetchSpec spec;
    spec.offset = 20;
    spec.max_records = static_cast<std::size_t>(replicated_prefix);
    auto prefix = cluster->broker(leader)->fetch("div", 0, spec);
    ASSERT_TRUE(prefix.ok());
    for (BrokerId f : followers) {
      ASSERT_TRUE(cluster->broker(f)->replicate("div", 0, prefix.value()).ok());
    }
  }
  const std::uint64_t quorum_end =
      20 + static_cast<std::uint64_t>(replicated_prefix);

  // The leader dies; the healed followers elect among themselves at the
  // quorum end and the log moves on without the orphans.
  ASSERT_TRUE(cluster->kill_broker(leader).ok());
  for (BrokerId f : followers) {
    ASSERT_TRUE(cluster->set_broker_isolated(f, false).ok());
  }
  ASSERT_TRUE(wait_until([&] {
    auto l = cluster->leader("div", 0);
    return l.ok() && l.value() != kNoBroker && l.value() != leader;
  }));
  auto new_leader = cluster->leader("div", 0);
  ASSERT_TRUE(new_leader.ok());
  std::vector<broker::Record> fresh;
  for (int i = 0; i < 10; ++i) {
    fresh.push_back(make_record("new-" + std::to_string(i)));
  }
  produced = cluster->produce(new_leader.value(), "div", 0, std::move(fresh),
                              AckPolicy::kQuorum);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_EQ(produced.value(), quorum_end)
      << "new epoch must start at the quorum end";

  // The deposed leader rejoins: its divergent suffix is truncated and
  // replaced by the new epoch's records.
  ASSERT_TRUE(cluster->restore_broker(leader).ok());
  ASSERT_TRUE(wait_until([&] { return cluster->replicas_converged("div", 0); }));
  broker::FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 100;
  for (BrokerId r : meta.value().replicas) {
    auto fetched = cluster->broker(r)->fetch("div", 0, spec);
    ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
    ASSERT_EQ(fetched.value().size(), quorum_end + 10) << "replica " << r;
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(fetched.value()[i].record.key, "base-" + std::to_string(i));
    }
    for (std::size_t i = 20; i < quorum_end; ++i) {
      EXPECT_EQ(fetched.value()[i].record.key,
                "lost-" + std::to_string(i - 20))
          << "replica " << r;
    }
    for (std::size_t i = quorum_end; i < quorum_end + 10; ++i) {
      EXPECT_EQ(fetched.value()[i].record.key,
                "new-" + std::to_string(i - quorum_end))
          << "replica " << r;
    }
  }
}

TEST_F(ClusterFailoverTest, DeposedLeaderTruncatesDivergentSuffix) {
  expect_divergent_suffix_truncated(fast_options(), /*orphan_batch=*/1,
                                    /*replicated_prefix=*/0);
}

// Durable replicas, and the orphans are one 5-record batch on the
// deposed leader's disk whose first two records the followers hold: the
// cut lands inside that batch, and the deposed leader's log must end
// exactly there before it catches up.
TEST_F(ClusterFailoverTest, DeposedLeaderCutsInsideItsOrphanBatch) {
  ClusterOptions options = fast_options();
  options.durable_root = dir_;
  options.storage.flush_policy = storage::FlushPolicy::kEverySync;
  expect_divergent_suffix_truncated(options, /*orphan_batch=*/5,
                                    /*replicated_prefix=*/2);
}

// A dead deposed leader whose divergent suffix reaches past the produce
// target must not count toward acks=quorum: its matching end offset is
// garbage awaiting truncation, and counting it would let "quorum-acked"
// records exist on a single live log.
TEST_F(ClusterFailoverTest, DeadDivergentReplicaCannotSatisfyQuorum) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("fence").ok());
  auto meta = cluster->metadata("fence", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }
  ASSERT_EQ(followers.size(), 2u);

  std::vector<broker::Record> base;
  for (int i = 0; i < 20; ++i) {
    base.push_back(make_record("base-" + std::to_string(i)));
  }
  auto produced =
      cluster->produce(leader, "fence", 0, std::move(base), AckPolicy::kAll);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged("fence", 0); }));

  // The leader takes acks=leader orphans nobody replicates (end 25 vs the
  // followers' 20), then dies. One follower is elected at 20; the dead
  // deposed leader sits at a raw end of 25 with a pending truncation.
  for (BrokerId f : followers) {
    ASSERT_TRUE(cluster->set_broker_isolated(f, true).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster
                    ->produce(leader, "fence", 0,
                              {make_record("lost-" + std::to_string(i))},
                              AckPolicy::kLeader)
                    .ok());
  }
  ASSERT_TRUE(cluster->kill_broker(leader).ok());
  ASSERT_TRUE(cluster->set_broker_isolated(followers[0], false).ok());
  ASSERT_TRUE(wait_until([&] {
    auto l = cluster->leader("fence", 0);
    return l.ok() && l.value() == followers[0];
  }));

  // Quorum needs 2 of 3, but the only eligible replica is the new leader:
  // the other follower is isolated and the dead leader's 25-record log is
  // divergent garbage. The produce must time out — even though the dead
  // leader's raw end (25) reaches past the target (21..25).
  auto fenced = cluster->produce(followers[0], "fence", 0,
                                 {make_record("after-failover")},
                                 AckPolicy::kQuorum);
  ASSERT_FALSE(fenced.ok())
      << "quorum satisfied by a dead divergent replica";
  EXPECT_EQ(fenced.status().code(), StatusCode::kTimeout);

  // With a real second replica back, the retried produce quorum-acks.
  ASSERT_TRUE(cluster->set_broker_isolated(followers[1], false).ok());
  ASSERT_TRUE(wait_until([&] {
    return cluster
        ->produce(followers[0], "fence", 0, {make_record("after-heal")},
                  AckPolicy::kQuorum)
        .ok();
  }));

  // The orphans never resurface once the deposed leader rejoins.
  ASSERT_TRUE(cluster->restore_broker(leader).ok());
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged("fence", 0); }));
  const auto log = committed_log(*cluster, "fence", 0);
  for (const auto& [offset, key] : log) {
    EXPECT_NE(key.rfind("lost-", 0), 0u)
        << "divergent record resurfaced at offset " << offset;
  }
}

// Replication — both the synchronous produce-path push and the catch-up
// pump — must preserve the leader's broker timestamps: the same offset
// carries the same timestamp on every replica, so offset_for_timestamp
// and age-based retention stay consistent across a failover.
TEST_F(ClusterFailoverTest, ReplicationPreservesLeaderTimestamps) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("ts").ok());
  auto meta = cluster->metadata("ts", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }
  ASSERT_EQ(followers.size(), 2u);

  // followers[0] receives the records via the synchronous push;
  // followers[1] is lagging and gets them from the catch-up pump later.
  ASSERT_TRUE(cluster->set_broker_isolated(followers[1], true).ok());
  for (int i = 0; i < 25; ++i) {
    auto produced = cluster->produce(leader, "ts", 0,
                                     {make_record("t" + std::to_string(i))},
                                     AckPolicy::kQuorum);
    ASSERT_TRUE(produced.ok()) << produced.status().to_string();
    Clock::sleep_exact(std::chrono::microseconds(200));  // distinct stamps
  }
  ASSERT_TRUE(cluster->set_broker_isolated(followers[1], false).ok());
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged("ts", 0); }));

  broker::FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 50;
  auto on_leader = cluster->broker(leader)->fetch("ts", 0, spec);
  ASSERT_TRUE(on_leader.ok());
  ASSERT_EQ(on_leader.value().size(), 25u);
  for (BrokerId f : followers) {
    auto on_follower = cluster->broker(f)->fetch("ts", 0, spec);
    ASSERT_TRUE(on_follower.ok()) << on_follower.status().to_string();
    ASSERT_EQ(on_follower.value().size(), 25u) << "replica " << f;
    for (std::size_t i = 0; i < 25; ++i) {
      EXPECT_EQ(on_follower.value()[i].broker_timestamp_ns,
                on_leader.value()[i].broker_timestamp_ns)
          << "timestamp diverged on replica " << f << " at offset " << i;
    }
  }

  // offset_for_timestamp answers identically on every replica.
  const std::uint64_t probe =
      on_leader.value()[12].broker_timestamp_ns;
  for (BrokerId r : meta.value().replicas) {
    auto off = cluster->broker(r)->offset_for_timestamp("ts", 0, probe);
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(off.value(), 12u) << "replica " << r;
  }
}

}  // namespace
}  // namespace pe::cluster
