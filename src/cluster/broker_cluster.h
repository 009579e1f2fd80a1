// Replicated multi-broker cluster: partition sharding, quorum acks, and
// leader failover with zero committed-offset loss.
//
// A BrokerCluster hosts N broker::Broker instances and layers a
// metadata/control plane over them:
//
//  - Every topic-partition has one leader and RF-1 followers assigned by
//    the deterministic shard map. Produce goes through the leader; the
//    records are pushed synchronously to caught-up followers and the call
//    returns once the configured ack policy (leader/quorum/all) is met.
//  - A controller thread heartbeats the members, streams catch-up
//    replication out of the leader's log (cold reads come straight from
//    the mmap'd storage segments), maintains the ISR, and — when a
//    leader's heartbeat expires — elects the most-caught-up live replica.
//    Leader epochs fence stale writers; a deposed leader's un-replicated
//    suffix is truncated before it rejoins.
//  - Consumers only ever read up to the high watermark (the offset known
//    to be on a majority of replicas), so no record a consumer has seen
//    can be lost in a failover.
//  - Consumer-group commits are appended to the replicated `__offsets`
//    topic, applied to the offsets leader's coordinator in log order, and
//    quorum-acked. A new offsets leader replays its local replica, so
//    committed offsets survive any minority of broker failures.
//
// The fault module drives chaos through kill_broker / restore_broker /
// set_broker_isolated; see DESIGN.md §10 for the replication contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/waiter.h"
#include "broker/broker.h"
#include "cluster/cluster_types.h"

namespace pe::cluster {

/// Per-topic configuration at cluster scope.
struct ClusterTopicConfig {
  std::uint32_t partitions = 1;
  broker::RetentionPolicy retention;
};

class BrokerCluster {
 public:
  explicit BrokerCluster(ClusterOptions options = {});
  ~BrokerCluster();

  BrokerCluster(const BrokerCluster&) = delete;
  BrokerCluster& operator=(const BrokerCluster&) = delete;

  const ClusterOptions& options() const { return options_; }
  std::uint32_t broker_count() const;
  /// Direct member access for tests/tools (the Broker is internally
  /// synchronized). Returns nullptr for an out-of-range id.
  std::shared_ptr<broker::Broker> broker(BrokerId id) const;
  /// Resolves a broker name ("broker-2") to its id; kNoBroker if unknown.
  BrokerId broker_id(const std::string& name) const;

  // --- admin ---
  Status create_topic(const std::string& name, ClusterTopicConfig config = {});
  bool has_topic(const std::string& name) const;
  std::uint32_t partition_count(const std::string& name) const;

  // --- metadata (what cluster clients cache and refresh) ---
  Result<PartitionMeta> metadata(const std::string& topic,
                                 std::uint32_t partition) const;
  Result<BrokerId> leader(const std::string& topic,
                          std::uint32_t partition) const;

  // --- data plane ---
  /// Appends through broker `via`, which must be the current leader —
  /// anything else fails with NOT_LEADER (carrying the real leader in the
  /// message) so clients refresh metadata and retry. Returns the first
  /// offset once the ack policy is satisfied; TIMEOUT if the required
  /// replicas did not catch up within `ack_timeout` (the batch may still
  /// replicate afterwards: retrying can duplicate — at-least-once).
  ///
  /// `client_id` feeds the leader broker's admission control (see
  /// Broker::produce); an over-quota client gets a transient
  /// Status::Throttled with a retry-after hint. Empty = internal caller.
  /// `acks` defaults to the cluster's default_acks.
  Result<std::uint64_t> produce(BrokerId via, const std::string& topic,
                                std::uint32_t partition,
                                std::vector<broker::Record> records,
                                std::optional<AckPolicy> acks = std::nullopt,
                                const std::string& client_id = {});

  /// Reads from the leader, capped at the high watermark: records not yet
  /// on a majority of replicas are invisible. Never blocks: a read that
  /// returns no records parks `spec.waiter` (DESIGN §10).
  Result<std::vector<broker::ConsumedRecord>> fetch(
      BrokerId via, const std::string& topic, std::uint32_t partition,
      broker::FetchSpec spec) const;

  /// Committed end of a partition: the quorum-replicated offset. A
  /// consumer positioned here has seen everything that is guaranteed to
  /// survive a failover.
  Result<std::uint64_t> high_watermark(const std::string& topic,
                                       std::uint32_t partition) const;
  Result<std::uint64_t> log_start_offset(const std::string& topic,
                                         std::uint32_t partition) const;

  // --- consumer groups ---
  /// The live `__offsets` leader, whose coordinator serves consumer
  /// groups; null during its election.
  std::shared_ptr<broker::Broker> offsets_leader() const;

  /// Replicated offset commit: appended to `__offsets` under the given
  /// leader epoch (stale epochs are fenced with NOT_LEADER), applied to
  /// the offsets leader's coordinator in log order, quorum-acked. Only an
  /// OK return means the commit is durable against leader loss.
  Status commit_offset(const std::string& group,
                       const broker::TopicPartition& tp, std::uint64_t offset,
                       std::uint64_t epoch);
  std::optional<std::uint64_t> committed_offset(
      const std::string& group, const broker::TopicPartition& tp) const;
  /// Current `__offsets` leader epoch, passed back via commit_offset.
  std::uint64_t offsets_epoch() const;

  // --- chaos hooks (fault module) ---
  /// Marks a broker dead: all cluster calls routed at it fail UNAVAILABLE
  /// and its heartbeat goes stale, so its partitions fail over once the
  /// session timeout expires (bounded failover, not instant).
  Status kill_broker(BrokerId id);
  Status kill_broker(const std::string& name);
  /// Brings a dead broker back (durable members crash-recover from disk
  /// first, losing `keep_fraction`-scaled unsynced tails) or heals an
  /// isolated one. A restored member rejoins as a follower: any partition
  /// it still nominally leads is re-elected first.
  Status restore_broker(BrokerId id, double keep_fraction = 0.0);
  Status restore_broker(const std::string& name, double keep_fraction = 0.0);
  /// Network isolation: the broker stays up but heartbeats stop, cluster
  /// calls fail UNAVAILABLE, and replication skips it.
  Status set_broker_isolated(BrokerId id, bool isolated);
  Status set_broker_isolated(const std::string& name, bool isolated);
  bool broker_alive(BrokerId id) const;

  // --- introspection ---
  std::uint64_t failover_count() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  /// True when every partition of every topic has a live leader (test/
  /// tool convergence helper).
  bool all_partitions_led() const;
  /// True when every live replica of the partition has the same end
  /// offset (replication has drained).
  bool replicas_converged(const std::string& topic,
                          std::uint32_t partition) const;

 private:
  struct Node {
    std::shared_ptr<broker::Broker> broker;
    bool alive = true;
    bool isolated = false;
    TimePoint last_heartbeat{};
  };

  struct PartitionState {
    PartitionMeta meta;
    /// Replica id -> offset its log must be truncated to before it may
    /// rejoin the ISR or lead: the divergence repair left behind by an
    /// election that moved leadership away from it.
    std::map<BrokerId, std::uint64_t> pending_truncate;
    /// Serializes the produce path's leader-append + follower-push
    /// against the controller's catch-up pump, so every replica applies
    /// record batches in the same order (offsets must match content
    /// across replicas).
    Mutex append_mutex;
    /// Leaf lock over the fetches and ack waits that found nothing.
    Mutex park_mutex;
    ParkedWaiters parked PE_GUARDED_BY(park_mutex);
  };

  struct TopicState {
    ClusterTopicConfig config;
    std::uint32_t replication_factor = 1;
    std::vector<std::unique_ptr<PartitionState>> partitions;
  };

  /// Snapshot taken on the produce path while the metadata lock is held.
  /// `replicas` is the partition's full replica set by id — await_acks
  /// re-checks each replica's eligibility (alive, not isolated, no
  /// pending divergence repair) under the metadata lock on every wake,
  /// so a dead broker's frozen end offset or a deposed leader's
  /// divergent suffix can never satisfy an ack.
  struct AckWait {
    std::uint64_t target = 0;
    std::size_t required = 0;
    std::size_t satisfied = 0;
    AckPolicy acks = AckPolicy::kLeader;
    std::vector<BrokerId> replicas;
  };

  struct IsrChange {
    std::string topic;
    std::uint32_t partition = 0;
    std::uint64_t epoch = 0;
    std::vector<BrokerId> isr;
  };

  void controller_loop();
  void tick();
  /// Writer phase: refresh heartbeats, repair pending truncations on live
  /// replicas, elect leaders for partitions whose leader expired (or that
  /// are leaderless with a live candidate).
  void admin_phase();
  /// Reader phase: stream catch-up batches leader -> lagging followers,
  /// compute the desired ISR per partition.
  std::vector<IsrChange> replicate_phase();
  void apply_isr_changes(const std::vector<IsrChange>& changes);

  Status create_topic_locked(const std::string& name,
                             ClusterTopicConfig config,
                             std::uint32_t replication_factor)
      PE_REQUIRES(mutex_);
  void elect_locked(const std::string& topic, std::uint32_t partition,
                    PartitionState& ps) PE_REQUIRES(mutex_);
  /// Rebuilds the committed-offset table of a new __offsets leader by
  /// replaying its local replica in log order (last write per key wins).
  void replay_offsets_locked(BrokerId id) PE_REQUIRES(mutex_);
  Result<PartitionState*> find_partition_locked(const std::string& topic,
                                                std::uint32_t partition) const
      PE_REQUIRES_SHARED(mutex_);
  /// The partition, when `via` is its live, reachable leader: NOT_LEADER
  /// (naming the real leader) or UNAVAILABLE otherwise.
  Result<PartitionState*> led_partition_locked(BrokerId via,
                                               const std::string& topic,
                                               std::uint32_t partition) const
      PE_REQUIRES_SHARED(mutex_);
  std::uint64_t high_watermark_locked(const std::string& topic,
                                      std::uint32_t partition,
                                      const PartitionState& ps) const
      PE_REQUIRES_SHARED(mutex_);
  /// Leader append + synchronous push to caught-up followers; fills
  /// `wait` for the caller to await outside the locks. Must hold the
  /// metadata lock (shared) and the partition's append_mutex.
  Result<std::uint64_t> replicated_append_locked(
      const std::string& topic, std::uint32_t partition, PartitionState& ps,
      const PartitionMeta& meta, const std::vector<broker::Record>& records,
      AckPolicy acks, const std::string& client_id, AckWait& wait)
      PE_REQUIRES_SHARED(mutex_);
  Status await_acks(const std::string& topic, std::uint32_t partition,
                    const AckWait& wait) const;
  /// Park before the state waited on is read; wake() after every change
  /// to a replica's end offset or to the leader.
  static void park(PartitionState& ps, const std::shared_ptr<Waiter>& waiter);
  static void wake(PartitionState& ps);

  const ClusterOptions options_;
  // Metadata lock, level 1 of the cluster domain (above every broker
  // lock: cluster code calls down into brokers, never the reverse).
  // Produce/fetch hold it shared across the leadership check and the
  // leader append; elections take it exclusive — a deposed leader can
  // never append after the election that removed it.
  mutable SharedMutex mutex_;
  /// Serializes __offsets append+apply so the coordinator's table always
  /// reflects a prefix of the log in log order.
  Mutex offsets_mutex_;
  std::vector<Node> nodes_ PE_GUARDED_BY(mutex_);
  std::map<std::string, TopicState> topics_ PE_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<bool> stop_{false};
  std::thread controller_;
};

}  // namespace pe::cluster
