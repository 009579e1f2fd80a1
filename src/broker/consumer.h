// Consumer client over an Endpoint (a Broker or a cluster::ClusterEndpoint).
//
// Supports Kafka-style group subscription (partitions assigned by the
// endpoint's group coordinator, rebalancing on membership change) or
// manual assignment. poll() fetches from assigned partitions round-robin
// and charges fetched bytes to the endpoint->consumer fabric link (none
// with a null fabric). An empty sweep waits on the consumer's Waiter.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/waiter.h"
#include "broker/endpoint.h"
#include "network/fabric.h"

namespace pe::broker {

/// Where to start when a partition has no committed offset, or when the
/// position fell out of the log's range (Kafka's auto.offset.reset).
enum class OffsetReset {
  kEarliest,
  kLatest,
};

struct ConsumerConfig {
  OffsetReset offset_reset = OffsetReset::kEarliest;
  std::size_t max_poll_records = 512;
  std::uint64_t fetch_max_bytes = 8ull << 20;
  /// Kafka-style at-least-once auto-commit: positions delivered by one
  /// poll() are committed at the START of the next poll() (and on clean
  /// close()), never before the application had a chance to process them.
  bool auto_commit = true;
};

struct ConsumerStats {
  std::uint64_t records_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t polls = 0;
  std::uint64_t rebalances = 0;
  /// Polls cut short by a broker-side fetch throttle.
  std::uint64_t throttled_polls = 0;
};

class Consumer {
 public:
  /// A set `stop` flag ends the join and commit retries (CANCELLED).
  Consumer(std::shared_ptr<Endpoint> endpoint,
           std::shared_ptr<net::Fabric> fabric, net::SiteId site,
           std::string group, ConsumerConfig config = {},
           std::shared_ptr<const std::atomic<bool>> stop = nullptr);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  const std::string& id() const { return id_; }
  const std::string& group() const { return group_; }

  /// Group subscription; partitions are assigned by the coordinator. The
  /// join retries transient failures (broker/retry.h).
  Status subscribe(const std::vector<std::string>& topics);

  /// Manual assignment (no group coordination).
  Status assign(std::vector<TopicPartition> partitions);

  /// Fetches up to config.max_poll_records across assigned partitions,
  /// waiting up to `timeout` for data. Returns an empty vector on timeout.
  ///
  /// With `throttle`, also reports fetch-side throttling: when the broker
  /// refused a fetch because this client's fetch quota is in debt,
  /// `*throttle` is the Status::Throttled (carrying the broker's
  /// retry-after hint) and the poll returns early instead of burning the
  /// timeout against a broker that already said no. OK otherwise.
  std::vector<ConsumedRecord> poll(Duration timeout,
                                   Status* throttle = nullptr);

  /// Current assignment (after any pending rebalance is applied on poll).
  std::vector<TopicPartition> assignment() const;

  /// Next offset this consumer will read from a partition; UNAVAILABLE
  /// until a later poll resolves a leaderless partition's start.
  Result<std::uint64_t> position(const TopicPartition& tp) const;

  Status seek(const TopicPartition& tp, std::uint64_t offset);

  /// Repositions to the first record at/after a broker timestamp
  /// (offsetsForTimes + seek in one call).
  Status seek_to_timestamp(const TopicPartition& tp, std::uint64_t ts_ns);

  /// Backpressure: paused partitions stay assigned but are skipped by
  /// poll() until resumed (Kafka pause/resume semantics).
  Status pause(const TopicPartition& tp);
  Status resume(const TopicPartition& tp);
  bool paused(const TopicPartition& tp) const;

  /// Commits current positions for all assigned partitions; each commit
  /// retries transient failures (broker/retry.h).
  Status commit();

  /// Leaves the group (idempotent); called by the destructor. With
  /// auto_commit, first commits positions delivered by the last poll.
  void close();

  /// Test/chaos hook: drop dead WITHOUT committing or leaving the group,
  /// as a crashed process would. Delivered-but-uncommitted records are
  /// redelivered to whichever member inherits the partitions.
  void crash();

  ConsumerStats stats() const;

 private:
  /// Heartbeats, then adopts the coordinator's assignment if its
  /// generation moved (rejoining when this member was evicted).
  void maybe_rebalance();
  /// Adopts a new assignment, keeping positions of retained partitions.
  void apply_assignment(const GroupAssignment& assigned);
  bool is_assigned(const TopicPartition& tp) const;
  /// Committed offset, else the reset point; nullopt (never a guessed 0)
  /// while the endpoint cannot tell.
  std::optional<std::uint64_t> initial_position(const TopicPartition& tp);
  /// The offset_reset point: the log start or the end; nullopt while the
  /// endpoint cannot tell.
  std::optional<std::uint64_t> reset_position(const TopicPartition& tp);

  std::shared_ptr<Endpoint> endpoint_;
  std::shared_ptr<net::Fabric> fabric_;
  const net::SiteId site_;
  const std::string group_;
  const std::string id_;
  const ConsumerConfig config_;
  const std::shared_ptr<const std::atomic<bool>> stop_;

  bool subscribed_ = false;
  std::vector<std::string> subscribed_topics_;
  bool closed_ = false;
  /// True when the previous poll() delivered records whose positions have
  /// not been auto-committed yet.
  bool uncommitted_delivery_ = false;
  std::uint64_t generation_ = 0;
  std::vector<TopicPartition> assignment_;
  /// Assigned partitions missing here are resolved by the next poll.
  std::map<TopicPartition, std::uint64_t> positions_;
  std::set<TopicPartition> paused_;
  std::size_t next_partition_index_ = 0;
  /// Parked by every fetch that finds nothing; poll() waits on it.
  const std::shared_ptr<Waiter> waiter_ = std::make_shared<Waiter>();
  ConsumerStats stats_;
};

}  // namespace pe::broker
