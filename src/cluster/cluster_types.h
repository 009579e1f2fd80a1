// Shared vocabulary for the replicated broker cluster.
//
// A BrokerCluster runs N broker::Broker instances; every topic-partition
// has one leader and RF-1 followers chosen by the deterministic shard map
// (shard_map.h). These types describe the cluster's metadata plane: who
// replicates what and how produced records are acknowledged. A record of
// the replicated `__offsets` topic is broker::encode_committed_offset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "broker/admission.h"
#include "broker/group_coordinator.h"
#include "storage/storage_config.h"

namespace pe::cluster {

/// Index of a broker inside a cluster (dense, assigned at construction).
using BrokerId = std::uint32_t;

/// "No broker": a partition whose every replica is down is leaderless.
inline constexpr BrokerId kNoBroker = ~BrokerId{0};

/// The replicated consumer-offsets topic. Commits are appended here by the
/// partition's leader and applied to its group coordinator in log order,
/// so a new leader can rebuild the committed-offset table by replaying its
/// local replica.
inline constexpr const char* kOffsetsTopic = "__offsets";

/// How many replicas must hold a produced batch before the produce call
/// returns OK.
enum class AckPolicy : std::uint8_t {
  /// Leader append only. Fastest; records not yet replicated are lost if
  /// the leader dies (they are also invisible to consumers until they
  /// clear the high watermark).
  kLeader,
  /// A majority of the replica set (RF/2 + 1, leader included). Survives
  /// any minority of replica failures — the election always finds a
  /// replica holding every quorum-acked record.
  kQuorum,
  /// Every current in-sync replica. Strongest, but degrades to kLeader
  /// durability when the ISR has shrunk to the leader alone.
  kAll,
};

inline const char* to_string(AckPolicy acks) {
  switch (acks) {
    case AckPolicy::kLeader: return "leader";
    case AckPolicy::kQuorum: return "quorum";
    case AckPolicy::kAll: return "all";
  }
  return "unknown";
}

/// What a call against a partition without a live leader fails with.
inline Status leaderless_status(const std::string& topic,
                                std::uint32_t partition) {
  return Status::Unavailable("partition " + topic + "/" +
                             std::to_string(partition) +
                             " is leaderless (election pending)");
}

/// Metadata-plane view of one topic-partition.
struct PartitionMeta {
  BrokerId leader = kNoBroker;
  /// Full replica set, leader included; fixed at topic creation.
  std::vector<BrokerId> replicas;
  /// In-sync subset of `replicas`: alive, reachable, caught up within the
  /// configured lag bound, and with no pending divergence repair.
  std::vector<BrokerId> isr;
  /// Leader epoch: bumped on every election. Stale-leader writes are
  /// fenced by comparing epochs (a commit carrying an old epoch is
  /// rejected with NOT_LEADER).
  std::uint64_t epoch = 0;
};

struct ClusterOptions {
  /// Number of brokers in the cluster.
  std::uint32_t brokers = 3;
  /// Replicas per partition (capped at the broker count).
  std::uint32_t replication_factor = 3;
  /// Ack policy used when the producer does not specify one.
  AckPolicy default_acks = AckPolicy::kQuorum;
  /// Controller tick: heartbeat refresh + replication pump cadence
  /// (emulated time; scaled by Clock::time_scale like all durations).
  Duration heartbeat_interval = std::chrono::milliseconds(1);
  /// A broker whose heartbeat is older than this is declared dead and its
  /// partitions fail over.
  Duration session_timeout = std::chrono::milliseconds(8);
  /// How long a produce waits for the required acks before returning
  /// TIMEOUT (the batch may still replicate afterwards: at-least-once).
  Duration ack_timeout = std::chrono::milliseconds(500);
  /// Non-empty => brokers are durable, each under
  /// `<durable_root>/broker-<i>`, and a killed broker recovers from disk.
  std::string durable_root;
  storage::StorageConfig storage;
  /// Edge admission control applied by every member broker (per-client
  /// quotas + hot-window memory cap). Quotas only bite at the partition
  /// leader — replication is admission-exempt.
  broker::AdmissionConfig admission;
};

}  // namespace pe::cluster
