// Consumer-group coordination: membership, partition assignment,
// generations, and committed offsets.
//
// Follows Kafka's group model with a range assignor: when membership
// changes, the generation is bumped and partitions of all subscribed
// topics are re-assigned contiguously across members (sorted by member
// id). Members learn about rebalances by observing the generation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/serialize.h"
#include "common/status.h"

namespace pe::broker {

struct TopicPartition {
  std::string topic;
  std::uint32_t partition = 0;

  auto operator<=>(const TopicPartition&) const = default;
};

/// Body of one committed-offset record in an `__offsets` log (the record
/// key is the group id): string topic | u32 partition | u64 offset. The
/// broker's durable offsets log and the cluster's replicated `__offsets`
/// topic both store it.
Bytes encode_committed_offset(const TopicPartition& tp, std::uint64_t offset);
/// False when `bytes` is not a whole committed-offset body.
bool decode_committed_offset(ByteSpan bytes, TopicPartition* tp,
                             std::uint64_t* offset);

/// A member's current view of the group after (re)joining.
struct GroupAssignment {
  std::uint64_t generation = 0;
  std::vector<TopicPartition> partitions;
};

class GroupCoordinator {
 public:
  /// `partition_count_fn` resolves a topic name to its partition count
  /// (0 = unknown topic). It is only ever invoked with the coordinator
  /// lock released: the broker-backed callback takes the broker registry
  /// lock, and holding the coordinator lock across it would invert the
  /// Broker -> Coordinator order.
  using PartitionCountFn = std::function<std::uint32_t(const std::string&)>;

  explicit GroupCoordinator(PartitionCountFn partition_count_fn);

  /// Adds (or re-subscribes) a member; triggers a rebalance. Unknown topics
  /// fail with NOT_FOUND and leave the group unchanged.
  Result<GroupAssignment> join(const std::string& group,
                               const std::string& member_id,
                               const std::vector<std::string>& topics);

  /// Removes a member; triggers a rebalance for the remaining members.
  Status leave(const std::string& group, const std::string& member_id);

  /// Liveness: members must heartbeat within the session timeout or they
  /// are evicted at the next group operation (0 = liveness disabled,
  /// the default). Consumers heartbeat automatically on every poll.
  void set_session_timeout(Duration timeout);
  Status heartbeat(const std::string& group, const std::string& member_id);

  /// Current assignment for a member (NOT_FOUND if not a member).
  Result<GroupAssignment> assignment(const std::string& group,
                                     const std::string& member_id) const;

  /// Current generation of a group (0 if the group does not exist).
  std::uint64_t generation(const std::string& group) const;

  std::vector<std::string> members(const std::string& group) const;

  /// Commits a consumed position (the *next* offset to read).
  Status commit_offset(const std::string& group, const TopicPartition& tp,
                       std::uint64_t offset);

  /// Last committed position, or nullopt if never committed.
  std::optional<std::uint64_t> committed_offset(const std::string& group,
                                                const TopicPartition& tp) const;

  /// Observes every successful commit_offset. Invoked with the
  /// coordinator lock released so the listener may take lower-ranked
  /// locks (the durable broker appends the commit to its offsets log).
  using CommitListener = std::function<void(
      const std::string& group, const TopicPartition& tp,
      std::uint64_t offset)>;
  void set_commit_listener(CommitListener listener);

  /// Replays a committed position from durable storage: same effect as
  /// commit_offset but never notifies the listener (it would re-append
  /// what is being replayed).
  void restore_offset(const std::string& group, const TopicPartition& tp,
                      std::uint64_t offset);

  /// Drops all group state (crash simulation; durable state is replayed
  /// back via restore_offset). The commit listener survives.
  void reset();

 private:
  struct Member {
    std::vector<std::string> topics;
    TimePoint last_heartbeat;
  };
  struct Group {
    std::uint64_t generation = 0;
    std::map<std::string, Member> members;
    // member id -> assigned partitions
    std::map<std::string, std::vector<TopicPartition>> assignments;
    std::map<TopicPartition, std::uint64_t> committed;
  };

  void rebalance_locked(Group& group) PE_REQUIRES(mutex_);
  /// Drops members whose heartbeat expired; rebalances if any were lost.
  void evict_expired_locked(Group& group) PE_REQUIRES(mutex_);

  PartitionCountFn partition_count_fn_;
  // Leaf of the broker lock domain: consumers call into the coordinator
  // while the broker may hold its own locks, never the reverse.
  mutable Mutex mutex_;
  Duration session_timeout_ PE_GUARDED_BY(mutex_) = Duration::zero();
  CommitListener commit_listener_ PE_GUARDED_BY(mutex_);
  std::map<std::string, Group> groups_ PE_GUARDED_BY(mutex_);
  // Partition counts resolved at join time, outside mutex_, so eviction-
  // triggered rebalances (heartbeat/leave) never invoke the callback
  // under the lock. Counts are fixed at topic creation, so the cache can
  // only go stale for deleted topics — which the range assignor would
  // have skipped anyway once their count reads 0.
  std::map<std::string, std::uint32_t> topic_counts_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::broker
