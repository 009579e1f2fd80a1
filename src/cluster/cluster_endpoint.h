// broker::Endpoint over a replicated BrokerCluster. Routes produce/fetch
// through a per-partition leader cache and group calls to the `__offsets`
// leader. Produce, group join and offset commits retry NOT_LEADER /
// UNAVAILABLE (leader died, election pending, broker isolated) with
// capped exponential backoff floored by a throttle's retry-after hint; a
// produce retry after an ack TIMEOUT can duplicate records (at-least-once,
// never silently lossy). Fetches are not retried: the consumer's next
// sweep finds the new leader. Thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "broker/endpoint.h"
#include "cluster/broker_cluster.h"

namespace pe::cluster {

/// Retry envelope for cluster calls: transient failures (NOT_LEADER,
/// UNAVAILABLE, TIMEOUT, throttles) are retried, anything else fails fast.
struct RetryConfig {
  std::size_t max_attempts = 8;
  Duration initial_backoff = std::chrono::milliseconds(1);
  Duration max_backoff = std::chrono::milliseconds(64);
};

struct ClusterEndpointStats {
  /// Attempts repeated after a retryable failure, across all calls.
  std::uint64_t retries = 0;
  /// The retries a broker throttle (quota or hot-window cap) caused.
  std::uint64_t throttle_waits = 0;
};

class ClusterEndpoint final : public broker::Endpoint {
 public:
  /// `acks` defaults to the cluster's default ack policy.
  explicit ClusterEndpoint(std::shared_ptr<BrokerCluster> cluster,
                           RetryConfig retry = {},
                           std::optional<AckPolicy> acks = std::nullopt);

  /// Members sit on no fabric site: clients pass a null fabric.
  const net::SiteId& site() const override { return site_; }
  std::uint32_t partition_count(const std::string& topic) const override {
    return cluster_->partition_count(topic);
  }
  /// Key-hash partition selection (stable across processes).
  Result<std::uint32_t> select_partition(const std::string& topic,
                                         const broker::Record& record) override;

  Result<std::uint64_t> produce(const std::string& topic,
                                std::uint32_t partition,
                                std::vector<broker::Record> records,
                                const std::string& client_id) override;
  /// Reads up to the high watermark; `spec.max_wait` is waited out here
  /// in 200 us (emulated) steps, as the cluster fetch never long-polls.
  Result<std::vector<broker::ConsumedRecord>> fetch(
      const std::string& topic, std::uint32_t partition,
      const broker::FetchSpec& spec, const std::string& client_id) override;
  Result<std::uint64_t> log_start_offset(
      const std::string& topic, std::uint32_t partition) const override {
    return cluster_->log_start_offset(topic, partition);
  }
  /// The high watermark; UNAVAILABLE while the partition is leaderless.
  Result<std::uint64_t> end_offset(const std::string& topic,
                                   std::uint32_t partition) const override;
  Result<std::uint64_t> offset_for_timestamp(
      const std::string& topic, std::uint32_t partition,
      std::uint64_t ts_ns) const override {
    return cluster_->offset_for_timestamp(topic, partition, ts_ns);
  }

  Result<broker::GroupAssignment> join_group(
      const std::string& group, const std::string& member,
      const std::vector<std::string>& topics) override;
  Status leave_group(const std::string& group,
                     const std::string& member) override;
  Status heartbeat(const std::string& group,
                   const std::string& member) override;
  Result<broker::GroupAssignment> group_assignment(
      const std::string& group, const std::string& member) override;
  /// Quorum-acked: OK means the commit survives offsets-leader loss.
  Status commit_offset(const std::string& group,
                       const broker::TopicPartition& tp,
                       std::uint64_t offset) override;
  std::optional<std::uint64_t> committed_offset(
      const std::string& group, const broker::TopicPartition& tp) override {
    return cluster_->committed_offset(group, tp);
  }

  ClusterEndpointStats stats() const {
    return {retries_.load(std::memory_order_relaxed),
            throttle_waits_.load(std::memory_order_relaxed)};
  }

 private:
  /// Runs `attempt` until it succeeds, fails permanently, or the retry
  /// budget runs out; returns the last status.
  Status with_retry(const std::function<Status()>& attempt);
  Result<BrokerId> leader_for(const std::string& topic,
                              std::uint32_t partition);
  void forget_leader(const std::string& topic, std::uint32_t partition);

  const std::shared_ptr<BrokerCluster> cluster_;
  const RetryConfig retry_;
  const AckPolicy acks_;
  const net::SiteId site_ = "cluster";
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> throttle_waits_{0};
  // Guards the leader cache only, never held across a cluster call.
  Mutex mutex_;
  std::map<broker::TopicPartition, BrokerId> leaders_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::cluster
