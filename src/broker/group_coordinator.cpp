#include "broker/group_coordinator.h"

#include <algorithm>

#include "common/clock.h"

namespace pe::broker {

Bytes encode_committed_offset(const TopicPartition& tp,
                              std::uint64_t offset) {
  Bytes out;
  ByteWriter w(out);
  w.put_string(tp.topic);
  w.put_u32(tp.partition);
  w.put_u64(offset);
  return out;
}

bool decode_committed_offset(ByteSpan bytes, TopicPartition* tp,
                             std::uint64_t* offset) {
  ByteReader r(bytes);
  return r.get_string(tp->topic).ok() && r.get_u32(tp->partition).ok() &&
         r.get_u64(*offset).ok();
}

GroupCoordinator::GroupCoordinator(PartitionCountFn partition_count_fn)
    : partition_count_fn_(std::move(partition_count_fn)) {}

Result<GroupAssignment> GroupCoordinator::join(
    const std::string& group, const std::string& member_id,
    const std::vector<std::string>& topics) {
  if (topics.empty()) {
    return Status::InvalidArgument("member must subscribe to >= 1 topic");
  }
  // Resolve partition counts BEFORE taking the coordinator lock: the
  // broker-backed callback acquires the broker registry lock, and calling
  // it under mutex_ inverts the Broker -> Coordinator order (TSan reports
  // that as a lock-order inversion; regression test in
  // tests/broker/group_coordinator_test.cpp).
  std::map<std::string, std::uint32_t> counts;
  for (const auto& t : topics) {
    const std::uint32_t parts = partition_count_fn_(t);
    if (parts == 0) {
      return Status::NotFound("unknown topic '" + t + "'");
    }
    counts[t] = parts;
  }
  MutexLock lock(mutex_);
  for (const auto& [t, parts] : counts) topic_counts_[t] = parts;
  Group& g = groups_[group];
  evict_expired_locked(g);
  g.members[member_id] = Member{topics, Clock::now()};
  rebalance_locked(g);
  return GroupAssignment{g.generation, g.assignments[member_id]};
}

void GroupCoordinator::set_session_timeout(Duration timeout) {
  MutexLock lock(mutex_);
  session_timeout_ = timeout;
}

Status GroupCoordinator::heartbeat(const std::string& group,
                                   const std::string& member_id) {
  MutexLock lock(mutex_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return Status::NotFound("unknown group " + group);
  auto mit = git->second.members.find(member_id);
  if (mit == git->second.members.end()) {
    return Status::NotFound("member " + member_id + " not in group " + group);
  }
  mit->second.last_heartbeat = Clock::now();
  evict_expired_locked(git->second);
  return Status::Ok();
}

void GroupCoordinator::evict_expired_locked(Group& g) {
  if (session_timeout_ <= Duration::zero()) return;
  const auto cutoff =
      Clock::now() - std::chrono::duration_cast<Duration>(
                         session_timeout_ / Clock::time_scale());
  bool changed = false;
  for (auto it = g.members.begin(); it != g.members.end();) {
    if (it->second.last_heartbeat < cutoff) {
      g.assignments.erase(it->first);
      it = g.members.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) rebalance_locked(g);
}

Status GroupCoordinator::leave(const std::string& group,
                               const std::string& member_id) {
  MutexLock lock(mutex_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return Status::NotFound("unknown group " + group);
  Group& g = git->second;
  if (g.members.erase(member_id) == 0) {
    return Status::NotFound("member " + member_id + " not in group " + group);
  }
  g.assignments.erase(member_id);
  rebalance_locked(g);
  return Status::Ok();
}

Result<GroupAssignment> GroupCoordinator::assignment(
    const std::string& group, const std::string& member_id) const {
  MutexLock lock(mutex_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return Status::NotFound("unknown group " + group);
  const Group& g = git->second;
  auto mit = g.assignments.find(member_id);
  if (mit == g.assignments.end()) {
    return Status::NotFound("member " + member_id + " not in group " + group);
  }
  return GroupAssignment{g.generation, mit->second};
}

std::uint64_t GroupCoordinator::generation(const std::string& group) const {
  MutexLock lock(mutex_);
  auto git = groups_.find(group);
  return git == groups_.end() ? 0 : git->second.generation;
}

std::vector<std::string> GroupCoordinator::members(
    const std::string& group) const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  auto git = groups_.find(group);
  if (git == groups_.end()) return out;
  for (const auto& [id, _] : git->second.members) out.push_back(id);
  return out;
}

Status GroupCoordinator::commit_offset(const std::string& group,
                                       const TopicPartition& tp,
                                       std::uint64_t offset) {
  CommitListener listener;
  {
    MutexLock lock(mutex_);
    // Creates the group implicitly: manually-assigned consumers may commit
    // under a group id without ever joining (matches Kafka).
    groups_[group].committed[tp] = offset;
    listener = commit_listener_;
  }
  // Outside the lock: the durable broker's listener appends to the
  // offsets commit log, which takes the storage mutex.
  if (listener) listener(group, tp, offset);
  return Status::Ok();
}

void GroupCoordinator::set_commit_listener(CommitListener listener) {
  MutexLock lock(mutex_);
  commit_listener_ = std::move(listener);
}

void GroupCoordinator::restore_offset(const std::string& group,
                                      const TopicPartition& tp,
                                      std::uint64_t offset) {
  MutexLock lock(mutex_);
  groups_[group].committed[tp] = offset;
}

void GroupCoordinator::reset() {
  MutexLock lock(mutex_);
  groups_.clear();
  topic_counts_.clear();
}

std::optional<std::uint64_t> GroupCoordinator::committed_offset(
    const std::string& group, const TopicPartition& tp) const {
  MutexLock lock(mutex_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return std::nullopt;
  auto cit = git->second.committed.find(tp);
  if (cit == git->second.committed.end()) return std::nullopt;
  return cit->second;
}

void GroupCoordinator::rebalance_locked(Group& g) {
  g.generation += 1;
  g.assignments.clear();
  if (g.members.empty()) return;

  // Range assignor, per topic: members subscribed to the topic get
  // contiguous partition ranges, remainder to the first members.
  std::set<std::string> all_topics;
  for (const auto& [_, member] : g.members) {
    all_topics.insert(member.topics.begin(), member.topics.end());
  }
  for (const auto& topic : all_topics) {
    std::vector<std::string> subscribers;
    for (const auto& [id, member] : g.members) {
      if (std::find(member.topics.begin(), member.topics.end(), topic) !=
          member.topics.end()) {
        subscribers.push_back(id);
      }
    }
    std::sort(subscribers.begin(), subscribers.end());
    // Cached at join time; never call partition_count_fn_ here — this
    // method runs under mutex_ and the callback takes broker locks.
    const auto pit = topic_counts_.find(topic);
    const std::uint32_t parts =
        pit == topic_counts_.end() ? 0 : pit->second;
    const auto m = static_cast<std::uint32_t>(subscribers.size());
    if (m == 0 || parts == 0) continue;
    const std::uint32_t base = parts / m;
    const std::uint32_t extra = parts % m;
    std::uint32_t next = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
      const std::uint32_t take = base + (i < extra ? 1 : 0);
      for (std::uint32_t k = 0; k < take; ++k) {
        g.assignments[subscribers[i]].push_back(TopicPartition{topic, next++});
      }
      // Members with zero partitions still get an (empty) entry so
      // assignment() succeeds for them.
      g.assignments.try_emplace(subscribers[i]);
    }
  }
  // Members whose topics all vanished still need an entry.
  for (const auto& [id, _] : g.members) g.assignments.try_emplace(id);
}

}  // namespace pe::broker
