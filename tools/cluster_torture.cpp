// Cluster kill-loop torture: kill random brokers (leaders included) with
// random torn tails, fail over, verify, restore, repeat.
//
// Each round produces a random batch at acks=quorum through a retrying
// Producer over a ClusterEndpoint, commits consumer-group offsets through
// the same endpoint (one attempt each), then power-cuts a randomly chosen
// member keeping a random fraction of its unsynced tail.
// After the failover the replication contract must hold:
//   1. every acked record is still readable at its offset with the exact
//      key that was sent (zero committed-record loss);
//   2. every OK-acked offset commit survives — the group's committed
//      offset never regresses (zero committed-offset loss);
//   3. once the member is restored, all replicas of every partition
//      converge to identical logs (divergent suffixes were truncated);
//   4. the cluster keeps a leader for every partition within the bounded
//      failover window.
// Violations print the failing invariant and exit non-zero.
//
// Usage: cluster_torture [rounds] [seed] [dir]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "broker/producer.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_endpoint.h"

namespace {

using namespace pe;
namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr std::uint32_t kPartitions = 2;
constexpr const char* kTopic = "torture";
constexpr const char* kGroup = "torture-readers";

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "TORTURE FAIL: %s\n", what.c_str());
  std::exit(1);
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

template <typename Pred>
void await(Pred pred, const std::string& what,
           std::chrono::milliseconds wall_budget = 10000ms) {
  Stopwatch sw;
  while (sw.elapsed_ms() < static_cast<double>(wall_budget.count())) {
    if (pred()) return;
    Clock::sleep_exact(1ms);
  }
  check(pred(), "timed out: " + what);
}

broker::Record record_for(std::uint32_t partition, std::uint64_t seq) {
  broker::Record r;
  r.key = "p" + std::to_string(partition) + "-" + std::to_string(seq);
  const std::size_t size = 16 + (seq * 37) % 512;
  Bytes value(size, 0);
  for (std::size_t i = 0; i < size; ++i) {
    value[i] = static_cast<std::uint8_t>((seq * 131 + i * 7) & 0xff);
  }
  r.value = std::move(value);
  return r;
}

/// offset -> key for the whole committed range of a partition, read
/// through the current leader.
std::map<std::uint64_t, std::string> committed_log(
    cluster::BrokerCluster& bc, std::uint32_t partition) {
  std::map<std::uint64_t, std::string> out;
  auto leader = bc.leader(kTopic, partition);
  if (!leader.ok() || leader.value() == cluster::kNoBroker) return out;
  auto start = bc.log_start_offset(kTopic, partition);
  auto hw = bc.high_watermark(kTopic, partition);
  if (!start.ok() || !hw.ok()) return out;
  std::uint64_t at = start.value();
  while (at < hw.value()) {
    broker::FetchSpec spec;
    spec.offset = at;
    spec.max_records = 512;
    auto fetched = bc.fetch(leader.value(), kTopic, partition, spec);
    if (!fetched.ok() || fetched.value().empty()) break;
    for (const auto& r : fetched.value()) {
      out.emplace(r.offset, r.record.key);
      at = r.offset + 1;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 20;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;
  const std::string dir =
      argc > 3 ? argv[3]
               : (fs::temp_directory_path() /
                  ("pe_cluster_torture_" + std::to_string(seed)))
                     .string();
  fs::remove_all(dir);

  cluster::ClusterOptions options;
  options.brokers = 3;
  options.replication_factor = 3;
  options.heartbeat_interval = 1ms;
  options.session_timeout = 6ms;
  options.ack_timeout = 100ms;
  options.durable_root = dir;
  options.storage.segment_max_bytes = 32 * 1024;
  options.storage.flush_every_n = 64;
  auto bc = std::make_shared<cluster::BrokerCluster>(options);
  cluster::ClusterTopicConfig topic_config;
  topic_config.partitions = kPartitions;
  check(bc->create_topic(kTopic, topic_config).ok(), "create_topic");

  Rng rng(seed);
  auto endpoint = std::make_shared<cluster::ClusterEndpoint>(
      bc, cluster::AckPolicy::kQuorum);
  broker::Producer producer(endpoint, nullptr, "torture");
  // What the cluster owes us: acked records and OK-acked offset commits.
  std::vector<std::map<std::uint64_t, std::string>> acked(kPartitions);
  std::vector<std::uint64_t> next_seq(kPartitions, 0);
  std::vector<std::uint64_t> committed_floor(kPartitions, 0);
  std::uint64_t total_acked = 0;
  std::uint64_t failovers_seen = 0;

  for (int round = 0; round < rounds; ++round) {
    // --- produce a random batch through the retrying producer ---
    const int sends = rng.uniform_int(20, 120);
    for (int i = 0; i < sends; ++i) {
      const auto p = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<int>(kPartitions) - 1));
      auto r = record_for(p, next_seq[p]);
      const std::string key = r.key;
      auto sent = producer.send(kTopic, p, std::move(r));
      ++next_seq[p];
      if (sent.ok()) {
        acked[p][sent.value().offset] = key;
        ++total_acked;
      }
    }

    // --- commit the current quorum end as the group's offset ---
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      auto hw = bc->high_watermark(kTopic, p);
      if (!hw.ok() || hw.value() == 0) continue;
      if (endpoint->commit_offset(kGroup, {kTopic, p}, hw.value()).ok()) {
        committed_floor[p] = std::max(committed_floor[p], hw.value());
      }
    }

    // --- power-cut a random member, torn tail and all ---
    const auto victim = static_cast<cluster::BrokerId>(
        rng.uniform_int(0, static_cast<int>(bc->broker_count()) - 1));
    const double keep = rng.uniform(0.0, 1.0);
    const std::uint64_t failovers_before = bc->failover_count();
    check(bc->kill_broker(victim).ok(), "kill_broker");
    await([&] { return bc->all_partitions_led(); },
          "leader election after killing broker-" + std::to_string(victim));
    failovers_seen += bc->failover_count() - failovers_before;

    // --- the contract, under failover ---
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      const auto log = committed_log(*bc, p);
      for (const auto& [offset, key] : acked[p]) {
        auto it = log.find(offset);
        check(it != log.end(), "round " + std::to_string(round) +
                                   ": acked offset " + std::to_string(offset) +
                                   " lost from partition " +
                                   std::to_string(p));
        check(it->second == key, "round " + std::to_string(round) +
                                     ": content diverged at offset " +
                                     std::to_string(offset));
      }
      if (committed_floor[p] > 0) {
        auto committed = bc->committed_offset(kGroup, {kTopic, p});
        check(committed.has_value() && *committed >= committed_floor[p],
              "round " + std::to_string(round) +
                  ": committed offset regressed on partition " +
                  std::to_string(p));
      }
    }

    // --- restore and wait for full convergence before the next round ---
    check(bc->restore_broker(victim, keep).ok(), "restore_broker");
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      await([&] { return bc->replicas_converged(kTopic, p); },
            "replica convergence on partition " + std::to_string(p));
    }
  }

  std::printf(
      "TORTURE PASS: %d rounds, %llu acked records verified, %llu failovers "
      "survived, zero committed loss\n",
      rounds, static_cast<unsigned long long>(total_acked),
      static_cast<unsigned long long>(failovers_seen));
  bc.reset();
  fs::remove_all(dir);
  return 0;
}
