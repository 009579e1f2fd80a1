// The calls a Producer/Consumer makes against wherever its broker runs:
// `Broker` implements them directly, `cluster::ClusterEndpoint` over a
// replicated BrokerCluster. `client_id` names the producing client to the
// serving broker's admission control (produce quotas); empty is
// quota-exempt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "broker/group_coordinator.h"
#include "broker/partition_log.h"
#include "broker/record.h"
#include "network/site.h"

namespace pe::broker {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Fabric site the endpoint's traffic is charged to.
  virtual const net::SiteId& site() const = 0;
  /// 0 for an unknown topic.
  virtual std::uint32_t partition_count(const std::string& topic) const = 0;
  virtual Result<std::uint32_t> select_partition(const std::string& topic,
                                                 const Record& record) = 0;

  /// Appends a batch; returns its first offset once acknowledged.
  virtual Result<std::uint64_t> produce(const std::string& topic,
                                        std::uint32_t partition,
                                        std::vector<Record> records,
                                        const std::string& client_id) = 0;
  /// Reads from `spec.offset` without blocking. A read that returns no
  /// records parks `spec.waiter` (when set) until the partition changes.
  virtual Result<std::vector<ConsumedRecord>> fetch(
      const std::string& topic, std::uint32_t partition,
      const FetchSpec& spec) = 0;
  virtual Result<std::uint64_t> log_start_offset(
      const std::string& topic, std::uint32_t partition) const = 0;
  /// Committed end: a broker's end offset, a cluster's high watermark.
  virtual Result<std::uint64_t> end_offset(const std::string& topic,
                                           std::uint32_t partition) const = 0;

  // Consumer groups, with GroupCoordinator semantics.
  virtual Result<GroupAssignment> join_group(
      const std::string& group, const std::string& member,
      const std::vector<std::string>& topics) = 0;
  virtual Status leave_group(const std::string& group,
                             const std::string& member) = 0;
  virtual Status heartbeat(const std::string& group,
                           const std::string& member) = 0;
  virtual Result<GroupAssignment> group_assignment(
      const std::string& group, const std::string& member) = 0;
  /// `offset` is the next offset to read.
  virtual Status commit_offset(const std::string& group,
                               const TopicPartition& tp,
                               std::uint64_t offset) = 0;
  virtual std::optional<std::uint64_t> committed_offset(
      const std::string& group, const TopicPartition& tp) = 0;
};

}  // namespace pe::broker
