// broker::Endpoint over a replicated BrokerCluster (DESIGN §10,
// "Clients"). Routes produce/fetch to the partition's current leader,
// looked up per call, and group calls to the `__offsets` leader. Every
// call makes one attempt (a fetch after NOT_LEADER, two); retrying is
// the clients' job (broker/retry.h). Thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "broker/endpoint.h"
#include "cluster/broker_cluster.h"

namespace pe::cluster {

class ClusterEndpoint final : public broker::Endpoint {
 public:
  /// `acks` defaults to the cluster's default ack policy.
  explicit ClusterEndpoint(std::shared_ptr<BrokerCluster> cluster,
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
  /// Reads up to the high watermark.
  Result<std::vector<broker::ConsumedRecord>> fetch(
      const std::string& topic, std::uint32_t partition,
      const broker::FetchSpec& spec) override;
  Result<std::uint64_t> log_start_offset(
      const std::string& topic, std::uint32_t partition) const override {
    return cluster_->log_start_offset(topic, partition);
  }
  /// The high watermark; UNAVAILABLE while the partition is leaderless.
  Result<std::uint64_t> end_offset(const std::string& topic,
                                   std::uint32_t partition) const override;

  Result<broker::GroupAssignment> join_group(
      const std::string& group, const std::string& member,
      const std::vector<std::string>& topics) override;
  Status leave_group(const std::string& group,
                     const std::string& member) override;
  Status heartbeat(const std::string& group,
                   const std::string& member) override;
  Result<broker::GroupAssignment> group_assignment(
      const std::string& group, const std::string& member) override;
  /// Quorum-acked: OK means the commit survives offsets-leader loss. The
  /// epoch is read per call, so after an offsets failover the client's
  /// retry of a NOT_LEADER (stale epoch) lands on the new leader's epoch.
  Status commit_offset(const std::string& group,
                       const broker::TopicPartition& tp,
                       std::uint64_t offset) override;
  std::optional<std::uint64_t> committed_offset(
      const std::string& group, const broker::TopicPartition& tp) override {
    return cluster_->committed_offset(group, tp);
  }

 private:
  const std::shared_ptr<BrokerCluster> cluster_;
  const AckPolicy acks_;
  const net::SiteId site_ = "cluster";
};

}  // namespace pe::cluster
