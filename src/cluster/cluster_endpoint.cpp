#include "cluster/cluster_endpoint.h"

#include <utility>

#include "cluster/shard_map.h"
#include "common/clock.h"

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

Result<BrokerId> ClusterEndpoint::leader_for(const std::string& topic,
                                             std::uint32_t partition) {
  const broker::TopicPartition tp{topic, partition};
  {
    MutexLock lock(mutex_);
    auto it = leaders_.find(tp);
    if (it != leaders_.end()) return it->second;
  }
  auto leader = cluster_->leader(topic, partition);
  if (!leader.ok()) return leader.status();
  if (leader.value() == kNoBroker) return leaderless_status(topic, partition);
  MutexLock lock(mutex_);
  leaders_[tp] = leader.value();
  return leader.value();
}

void ClusterEndpoint::forget_leader(const std::string& topic,
                                    std::uint32_t partition) {
  MutexLock lock(mutex_);
  leaders_.erase(broker::TopicPartition{topic, partition});
}

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
  auto leader = leader_for(topic, partition);
  if (!leader.ok()) return leader.status();
  auto produced = cluster_->produce(leader.value(), topic, partition,
                                    std::move(records), acks_, client_id);
  if (!produced.ok()) {
    // Leadership may have moved (NOT_LEADER carries the new leader; a
    // dead leader shows as UNAVAILABLE until the election lands): drop
    // the cache entry so the next attempt re-resolves.
    forget_leader(topic, partition);
  }
  return produced;
}

Result<std::vector<broker::ConsumedRecord>> ClusterEndpoint::fetch(
    const std::string& topic, std::uint32_t partition,
    const broker::FetchSpec& spec, const std::string& client_id) {
  const auto deadline =
      Clock::now() +
      std::chrono::duration_cast<Duration>(spec.max_wait / Clock::time_scale());
  while (true) {
    auto leader = leader_for(topic, partition);
    Result<std::vector<broker::ConsumedRecord>> fetched =
        leader.ok() ? cluster_->fetch(leader.value(), topic, partition, spec,
                                      client_id)
                    : leader.status();
    const StatusCode code = fetched.status().code();
    if (code == StatusCode::kNotLeader || code == StatusCode::kUnavailable) {
      forget_leader(topic, partition);
    }
    // A transient failure (a leader moving) is waited out like no data.
    const bool wait = fetched.ok() ? fetched.value().empty()
                                   : fetched.status().is_transient();
    if (!wait || Clock::now() >= deadline) return fetched;
    // Scaled: the wall deadline above shrank by the time scale, so a
    // fixed 200us wall sleep would eat it in a handful of steps.
    Clock::sleep_scaled(std::chrono::microseconds(200));
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
