// The broker service: topic registry + group coordinator + server stats.
//
// A Broker lives on a fabric site (typically hosted by a BrokerService
// pilot). Clients (Producer/Consumer) call it as an Endpoint but charge
// every payload to the fabric link between their site and the broker's
// site — that is where the paper's WAN effects come from.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "broker/admission.h"
#include "broker/endpoint.h"
#include "broker/group_coordinator.h"
#include "broker/topic.h"
#include "network/site.h"
#include "storage/log_dir.h"
#include "storage/storage_config.h"

namespace pe::broker {

/// Broker-level configuration. With a non-empty `durable_dir` the broker
/// keeps three kinds of durable state under it:
///   <dir>/__meta          — topic create/delete intents (always fsynced)
///   <dir>/__offsets       — consumer-group committed offsets (fsynced
///                           per commit: the durability contract is zero
///                           committed-offset loss across a crash)
///   <dir>/topics/<t>/p<n> — one segmented commit log per partition,
///                           flushed per `storage.flush_policy`
/// Reopening the same directory — or calling crash_and_recover() —
/// replays all three back into a working broker.
struct BrokerOptions {
  std::string durable_dir;
  storage::StorageConfig storage;
  /// Edge admission control: per-client quotas + hot-window memory cap.
  AdmissionConfig admission;
};

/// Aggregate broker-side counters (exported to telemetry).
struct BrokerStats {
  std::uint64_t records_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t produce_requests = 0;
  std::uint64_t fetch_requests = 0;
  std::uint64_t records_dead_lettered = 0;
  /// Produces rejected with a transient throttle (quota or hot-window
  /// cap). quota_rejections counts the per-client-quota subset.
  std::uint64_t throttled = 0;
  std::uint64_t quota_rejections = 0;
  /// Fetches refused because the client's fetch buckets were in debt.
  std::uint64_t fetch_throttled = 0;
};

/// Name of the dead-letter topic shadowing `topic` (Kafka convention).
inline std::string dead_letter_topic_name(const std::string& topic) {
  return topic + ".dlq";
}

class Broker : public Endpoint {
 public:
  explicit Broker(net::SiteId site, std::string name = "broker-0");
  /// Durable broker: recovers any state already under
  /// `options.durable_dir` before the constructor returns.
  Broker(net::SiteId site, BrokerOptions options,
         std::string name = "broker-0");

  const net::SiteId& site() const override { return site_; }
  const std::string& name() const { return name_; }
  bool durable() const { return !options_.durable_dir.empty(); }

  // --- admin ---
  Status create_topic(const std::string& name, TopicConfig config);
  Status delete_topic(const std::string& name);
  bool has_topic(const std::string& name) const;
  /// Partition count for a topic; 0 when unknown.
  std::uint32_t partition_count(const std::string& name) const override;
  std::vector<std::string> topic_names() const;

  // --- data plane (used by Producer/Consumer clients) ---
  /// Appends records to a specific partition; returns the first offset.
  ///
  /// `client_id` identifies the producing client for admission control: a
  /// client over its quota (explicit set_client_quota entry, or the
  /// default quota) is rejected with Status::Throttled — transient, carry
  /// the retry-after hint, retry and it succeeds. Empty = internal caller
  /// (dead-letter routing, tests), quota-exempt. The hot-window byte cap
  /// applies regardless of client id.
  Result<std::uint64_t> produce(const std::string& topic,
                                std::uint32_t partition,
                                std::vector<Record> records,
                                const std::string& client_id = {}) override;

  /// Replication append (cluster layer): appends records fetched from a
  /// partition leader, preserving their broker timestamps instead of
  /// re-stamping, so the same offset carries the same timestamp on every
  /// replica. Returns the first offset.
  Result<std::uint64_t> replicate(const std::string& topic,
                                  std::uint32_t partition,
                                  std::vector<ConsumedRecord> records);

  /// Chooses a partition using the topic's partitioner.
  Result<std::uint32_t> select_partition(const std::string& topic,
                                         const Record& record) override;

  /// `client_id` identifies the fetching client for fetch-side admission
  /// control (mirror of the produce path): a client whose fetch buckets
  /// are in debt is refused with Status::Throttled + retry-after hint,
  /// and a served fetch is charged for the bytes/records it actually
  /// carried. Empty = internal caller (replication), quota-exempt. A
  /// fetch at the log end parks `spec.waiter` (PartitionLog::fetch).
  Result<std::vector<ConsumedRecord>> fetch(const std::string& topic,
                                            std::uint32_t partition,
                                            const FetchSpec& spec,
                                            const std::string& client_id = {})
      override;

  /// Next offset to be written in a partition ("high watermark").
  Result<std::uint64_t> end_offset(const std::string& topic,
                                   std::uint32_t partition) const override;
  Result<std::uint64_t> log_start_offset(
      const std::string& topic, std::uint32_t partition) const override;
  /// Offset of the first record at/after a broker timestamp
  /// (offsetsForTimes).
  Result<std::uint64_t> offset_for_timestamp(
      const std::string& topic, std::uint32_t partition,
      std::uint64_t ts_ns) const override;

  /// Discards every record at/above `offset` in a partition (both tiers)
  /// and resumes the offset sequence there. Used by the cluster layer to
  /// repair divergence: a deposed leader's un-replicated suffix is cut
  /// before it catches up from the new leader.
  Status truncate_partition(const std::string& topic, std::uint32_t partition,
                            std::uint64_t offset);

  /// Routes a record that exhausted its processing retries to the
  /// per-topic dead-letter topic ("<origin>.dlq", created on first use
  /// with one partition). The record key is prefixed with its origin
  /// coordinates and the failure reason so downstream consumers can triage
  /// without a header model.
  Status dead_letter(const std::string& origin_topic,
                     std::uint32_t origin_partition, Record record,
                     const std::string& reason);

  // --- chaos injection (fault module) ---
  /// Takes a partition offline: produce/fetch against it fail with
  /// UNAVAILABLE until it is brought back (models a lost partition
  /// leader). The retained log is NOT discarded.
  Status set_partition_offline(const std::string& topic,
                               std::uint32_t partition, bool offline);
  bool partition_offline(const std::string& topic,
                         std::uint32_t partition) const;

  /// Hard-crash simulation for a durable broker: every partition log,
  /// the topic-metadata log, and the offsets log lose their unsynced
  /// tail (keeping `keep_fraction` of the dirty bytes, possibly cutting
  /// a frame in half), all in-memory state — topics, hot windows, group
  /// offsets — is dropped, and the broker recovers from disk exactly as
  /// a fresh process reopening the directory would. Returns the
  /// aggregated recovery report; fails on an in-memory broker.
  Result<storage::RecoveryReport> crash_and_recover(
      double keep_fraction = 0.0);

  GroupCoordinator& coordinator() { return coordinator_; }

  // --- consumer groups (Endpoint; served by the coordinator) ---
  Result<GroupAssignment> join_group(
      const std::string& group, const std::string& member,
      const std::vector<std::string>& topics) override {
    return coordinator_.join(group, member, topics);
  }
  Status leave_group(const std::string& group,
                     const std::string& member) override {
    return coordinator_.leave(group, member);
  }
  Status heartbeat(const std::string& group,
                   const std::string& member) override {
    return coordinator_.heartbeat(group, member);
  }
  Result<GroupAssignment> group_assignment(
      const std::string& group, const std::string& member) override {
    return coordinator_.assignment(group, member);
  }
  Status commit_offset(const std::string& group, const TopicPartition& tp,
                       std::uint64_t offset) override {
    return coordinator_.commit_offset(group, tp, offset);
  }
  std::optional<std::uint64_t> committed_offset(
      const std::string& group, const TopicPartition& tp) override {
    return coordinator_.committed_offset(group, tp);
  }

  BrokerStats stats() const;

  /// Total bytes currently retained across all topics.
  std::uint64_t retained_bytes() const;

  // --- admission control ---
  /// Installs an explicit quota for a client id (overrides the default).
  void set_client_quota(const std::string& client, ClientQuota quota);
  /// Installs an explicit fetch-side quota for a client id.
  void set_client_fetch_quota(const std::string& client, ClientQuota quota);
  /// Sum of all partitions' in-memory hot-window bytes right now.
  std::uint64_t hot_window_bytes() const {
    return admission_.hot_window_bytes();
  }

 private:
  std::shared_ptr<Topic> find_topic(const std::string& name) const;
  /// The log of one partition, aliasing its Topic so the topic stays alive
  /// for the caller's use of it. NOT_FOUND for an unknown topic,
  /// OUT_OF_RANGE for a partition past the topic's count.
  Result<std::shared_ptr<PartitionLog>> find_partition(
      const std::string& topic, std::uint32_t partition) const;

  /// Forces one retention/hot-trim pass over every partition. Run when a
  /// hot-window reservation fails: the broker-wide cap may be held up by
  /// partitions other than the produce target.
  void trim_hot_windows();

  /// Opens (or reopens) the meta/offsets logs and replays them: topic
  /// intents rebuild the registry (each topic recovering its partition
  /// logs), committed offsets are restored into the coordinator.
  Status recover_locked(storage::RecoveryReport* report)
      PE_REQUIRES(mutex_);
  Status persist_topic_intent_locked(const std::string& name, bool create,
                                     const TopicConfig& config)
      PE_REQUIRES(mutex_);
  /// Commit-listener target: appends one committed offset to the offsets
  /// log and fsyncs it. Never called with the coordinator lock held.
  void persist_commit(const std::string& group, const TopicPartition& tp,
                      std::uint64_t offset);
  std::string topic_dir(const std::string& name) const {
    return options_.durable_dir + "/topics/" + name;
  }

  // Per-counter atomics: the data plane bumps these without touching any
  // broker-global lock (one cache-line ping instead of a mutex round trip
  // per produce/fetch).
  struct AtomicStats {
    std::atomic<std::uint64_t> records_in{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> records_out{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> produce_requests{0};
    std::atomic<std::uint64_t> fetch_requests{0};
    std::atomic<std::uint64_t> records_dead_lettered{0};
    std::atomic<std::uint64_t> throttled{0};
    std::atomic<std::uint64_t> quota_rejections{0};
    std::atomic<std::uint64_t> fetch_throttled{0};
  };

  const net::SiteId site_;
  const std::string name_;
  const BrokerOptions options_;
  // Reader-writer registry lock: produce/fetch only ever take it shared
  // (topic lookup + offline check); per-partition serialization lives in
  // each PartitionLog's own mutex. Admin ops (create/delete topic, chaos
  // offline toggles) take it exclusive. Top of the broker lock domain:
  // PartitionLog mutexes may be acquired under it (retained_bytes), never
  // above it.
  mutable SharedMutex mutex_;
  std::map<std::string, std::shared_ptr<Topic>> topics_ PE_GUARDED_BY(mutex_);
  std::set<std::pair<std::string, std::uint32_t>> offline_partitions_
      PE_GUARDED_BY(mutex_);
  // The pointers are guarded by the registry lock (shared suffices: the
  // LogDirs are internally synchronized, only the pointer needs to stay
  // stable); they are replaced exclusively under the write lock in
  // crash_and_recover.
  std::unique_ptr<storage::LogDir> meta_log_ PE_GUARDED_BY(mutex_);
  std::unique_ptr<storage::LogDir> offsets_log_ PE_GUARDED_BY(mutex_);
  GroupCoordinator coordinator_;
  AtomicStats stats_;
  // Internally synchronized; shared hot-bytes counter is wired into every
  // topic at creation/recovery.
  AdmissionController admission_;
};

}  // namespace pe::broker
