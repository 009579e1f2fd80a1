#include "cluster/cluster_endpoint.h"

#include <utility>

#include "cluster/shard_map.h"

namespace pe::cluster {

namespace {

Status no_coordinator() {
  return Status::Unavailable("no offsets leader (election pending)");
}

}  // namespace

ClusterEndpoint::ClusterEndpoint(std::shared_ptr<BrokerCluster> cluster,
                                 std::optional<AckPolicy> acks)
    : cluster_(std::move(cluster)),
      acks_(acks.value_or(cluster_->options().default_acks)) {}

Result<std::uint32_t> ClusterEndpoint::select_partition(
    const std::string& topic, const broker::Record& record) {
  const std::uint32_t partitions = cluster_->partition_count(topic);
  if (partitions == 0) {
    return Status::NotFound("unknown topic '" + topic + "'");
  }
  return static_cast<std::uint32_t>(stable_hash(record.key) % partitions);
}

Result<std::uint64_t> ClusterEndpoint::produce(
    const std::string& topic, std::uint32_t partition,
    std::vector<broker::Record> records, const std::string& client_id) {
  auto leader = cluster_->leader(topic, partition);
  if (!leader.ok()) return leader.status();
  return cluster_->produce(leader.value(), topic, partition,
                           std::move(records), acks_, client_id);
}

Result<std::vector<broker::ConsumedRecord>> ClusterEndpoint::fetch(
    const std::string& topic, std::uint32_t partition,
    const broker::FetchSpec& spec) {
  for (int attempt = 0;; ++attempt) {
    auto leader = cluster_->leader(topic, partition);
    if (!leader.ok()) return leader.status();
    auto fetched = cluster_->fetch(leader.value(), topic, partition, spec);
    // NOT_LEADER: leadership moved since the lookup; one more at once.
    if (attempt == 1 || fetched.status().code() != StatusCode::kNotLeader) {
      return fetched;
    }
  }
}

Result<std::uint64_t> ClusterEndpoint::end_offset(
    const std::string& topic, std::uint32_t partition) const {
  // Like the start, only served by a leader: consumers wait out elections.
  auto leader = cluster_->leader(topic, partition);
  if (!leader.ok()) return leader.status();
  if (leader.value() == kNoBroker) return leaderless_status(topic, partition);
  return cluster_->high_watermark(topic, partition);
}

Result<broker::GroupAssignment> ClusterEndpoint::join_group(
    const std::string& group, const std::string& member,
    const std::vector<std::string>& topics) {
  auto coordinator = cluster_->offsets_leader();
  if (!coordinator) return no_coordinator();
  return coordinator->join_group(group, member, topics);
}

Status ClusterEndpoint::leave_group(const std::string& group,
                                    const std::string& member) {
  auto coordinator = cluster_->offsets_leader();
  return coordinator ? coordinator->leave_group(group, member)
                     : no_coordinator();
}

Status ClusterEndpoint::heartbeat(const std::string& group,
                                  const std::string& member) {
  auto coordinator = cluster_->offsets_leader();
  return coordinator ? coordinator->heartbeat(group, member)
                     : no_coordinator();
}

Result<broker::GroupAssignment> ClusterEndpoint::group_assignment(
    const std::string& group, const std::string& member) {
  auto coordinator = cluster_->offsets_leader();
  if (!coordinator) return no_coordinator();
  return coordinator->group_assignment(group, member);
}

Status ClusterEndpoint::commit_offset(const std::string& group,
                                      const broker::TopicPartition& tp,
                                      std::uint64_t offset) {
  return cluster_->commit_offset(group, tp, offset,
                                 cluster_->offsets_epoch());
}

}  // namespace pe::cluster
