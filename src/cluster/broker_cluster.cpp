#include "cluster/broker_cluster.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.h"
#include "cluster/shard_map.h"
#include "telemetry/metrics.h"

namespace pe::cluster {

namespace {

/// A follower further behind the leader than this drops out of the ISR
/// until the replication pump catches it back up.
constexpr std::uint64_t kIsrMaxLagRecords = 256;
/// Per-follower catch-up bounds for one pump pass (keeps a tick short
/// even when a follower is far behind).
constexpr std::size_t kReplicationBatchRecords = 1024;
constexpr std::uint64_t kReplicationBatchBytes = 4ull << 20;

std::string broker_name_for(BrokerId id) {
  return "broker-" + std::to_string(id);
}

std::string tp_str(const std::string& topic, std::uint32_t partition) {
  return topic + "/" + std::to_string(partition);
}

/// Emulated age of a heartbeat in nanoseconds: wall age scaled by the
/// global time scale, comparable against emulated Durations.
double emulated_age_ns(TimePoint last, TimePoint now) {
  const auto wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last);
  return static_cast<double>(wall.count()) * Clock::time_scale();
}

}  // namespace

BrokerCluster::BrokerCluster(ClusterOptions options)
    : options_(std::move(options)) {
  const std::uint32_t n = std::max(1u, options_.brokers);
  WriterLock lock(mutex_);
  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = broker_name_for(i);
    broker::BrokerOptions bo;
    bo.admission = options_.admission;
    if (!options_.durable_root.empty()) {
      bo.durable_dir = options_.durable_root + "/" + name;
      bo.storage = options_.storage;
    }
    auto b = std::make_shared<broker::Broker>(name, bo, name);
    nodes_.push_back(Node{std::move(b), true, false, Clock::now()});
  }

  // Re-derive the topic set: a durable restart recovers each broker's
  // topics from its meta log, and the shard map reproduces the same
  // replica layout the cluster had before. A fresh cluster only sets up
  // the offsets topic here.
  std::map<std::string, std::uint32_t> known;
  for (const Node& node : nodes_) {
    for (const std::string& t : node.broker->topic_names()) {
      known[t] = std::max(known[t], node.broker->partition_count(t));
    }
  }
  known.emplace(kOffsetsTopic, 1);
  for (const auto& [name, partitions] : known) {
    ClusterTopicConfig config;
    config.partitions = std::max(1u, partitions);
    // The offsets topic is replicated on every member: any survivor can
    // serve committed offsets after a failover.
    const std::uint32_t rf =
        name == kOffsetsTopic ? n : options_.replication_factor;
    if (auto s = create_topic_locked(name, config, rf); !s.ok()) {
      PE_LOG_WARN("cluster topic '" << name
                                    << "' setup failed: " << s.to_string());
    }
  }

  controller_ = std::thread(&BrokerCluster::controller_loop, this);
}

BrokerCluster::~BrokerCluster() {
  stop_.store(true, std::memory_order_relaxed);
  if (controller_.joinable()) controller_.join();
}

std::uint32_t BrokerCluster::broker_count() const {
  ReaderLock lock(mutex_);
  return static_cast<std::uint32_t>(nodes_.size());
}

std::shared_ptr<broker::Broker> BrokerCluster::broker(BrokerId id) const {
  ReaderLock lock(mutex_);
  if (id >= nodes_.size()) return nullptr;
  return nodes_[id].broker;
}

BrokerId BrokerCluster::broker_id(const std::string& name) const {
  ReaderLock lock(mutex_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].broker->name() == name) return static_cast<BrokerId>(i);
  }
  return kNoBroker;
}

// --- admin -----------------------------------------------------------------

Status BrokerCluster::create_topic(const std::string& name,
                                   ClusterTopicConfig config) {
  if (name.empty()) return Status::InvalidArgument("empty topic name");
  if (config.partitions == 0) {
    return Status::InvalidArgument("topic needs at least one partition");
  }
  WriterLock lock(mutex_);
  if (topics_.count(name) != 0) {
    return Status::AlreadyExists("topic '" + name + "' already exists");
  }
  return create_topic_locked(name, config, options_.replication_factor);
}

Status BrokerCluster::create_topic_locked(const std::string& name,
                                          ClusterTopicConfig config,
                                          std::uint32_t replication_factor) {
  if (topics_.count(name) != 0) return Status::Ok();
  broker::TopicConfig tc;
  tc.partitions = config.partitions;
  tc.retention = config.retention;
  for (Node& node : nodes_) {
    if (!node.alive) continue;  // re-created on restore
    auto s = node.broker->create_topic(name, tc);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) {
      PE_LOG_WARN("create '" << name << "' on " << node.broker->name()
                             << ": " << s.to_string());
    }
  }
  TopicState ts;
  ts.config = config;
  ts.replication_factor = replication_factor;
  ts.partitions.reserve(config.partitions);
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    auto ps = std::make_unique<PartitionState>();
    ps->meta.replicas =
        assign_replicas(name, p, static_cast<std::uint32_t>(nodes_.size()),
                        replication_factor);
    ts.partitions.push_back(std::move(ps));
  }
  auto [it, inserted] = topics_.emplace(name, std::move(ts));
  // The initial leader assignment is an election like any other: on a
  // fresh topic every replica is empty and the preferred (first) replica
  // wins; on a durable restart the most-caught-up recovered log wins.
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    elect_locked(name, p, *it->second.partitions[p]);
  }
  return Status::Ok();
}

bool BrokerCluster::has_topic(const std::string& name) const {
  ReaderLock lock(mutex_);
  return topics_.count(name) != 0;
}

std::uint32_t BrokerCluster::partition_count(const std::string& name) const {
  ReaderLock lock(mutex_);
  auto it = topics_.find(name);
  if (it == topics_.end()) return 0;
  return static_cast<std::uint32_t>(it->second.partitions.size());
}

// --- metadata --------------------------------------------------------------

Result<BrokerCluster::PartitionState*> BrokerCluster::find_partition_locked(
    const std::string& topic, std::uint32_t partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::NotFound("unknown topic '" + topic + "'");
  }
  if (partition >= it->second.partitions.size()) {
    return Status::OutOfRange(
        "partition " + std::to_string(partition) + " out of range for '" +
        topic + "' (" + std::to_string(it->second.partitions.size()) + ")");
  }
  return it->second.partitions[partition].get();
}

Result<BrokerCluster::PartitionState*> BrokerCluster::led_partition_locked(
    BrokerId via, const std::string& topic, std::uint32_t partition) const {
  auto found = find_partition_locked(topic, partition);
  if (!found.ok()) return found.status();
  const PartitionMeta& meta = found.value()->meta;
  if (meta.leader == kNoBroker) return leaderless_status(topic, partition);
  if (via != meta.leader) {
    tel::MetricsRegistry::global()
        .counter("cluster.not_leader_rejections")
        .add();
    return Status::NotLeader(
        broker_name_for(via) + " is not the leader for " +
        tp_str(topic, partition) + " (leader: " +
        broker_name_for(meta.leader) + ", epoch " +
        std::to_string(meta.epoch) + ")");
  }
  const Node& leader_node = nodes_[meta.leader];
  if (!leader_node.alive || leader_node.isolated) {
    return Status::Unavailable(broker_name_for(meta.leader) +
                               " is unreachable");
  }
  return found;
}

Result<PartitionMeta> BrokerCluster::metadata(const std::string& topic,
                                              std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  auto ps = find_partition_locked(topic, partition);
  if (!ps.ok()) return ps.status();
  return ps.value()->meta;
}

Result<BrokerId> BrokerCluster::leader(const std::string& topic,
                                       std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  auto ps = find_partition_locked(topic, partition);
  if (!ps.ok()) return ps.status();
  return ps.value()->meta.leader;
}

// --- data plane ------------------------------------------------------------

Result<std::uint64_t> BrokerCluster::replicated_append_locked(
    const std::string& topic, std::uint32_t partition, PartitionState& ps,
    const PartitionMeta& meta, const std::vector<broker::Record>& records,
    AckPolicy acks, const std::string& client_id, AckWait& wait) {
  Node& leader_node = nodes_[meta.leader];
  // Records carry shared payload views, so these per-replica copies
  // duplicate only the key strings and coordinates, never the payloads.
  // Admission (quota + hot-window cap) is enforced once, at the leader;
  // follower appends go through Broker::replicate, which is
  // admission-exempt — replication must always drain, and the leader's
  // admission bounds the replicas transitively.
  std::vector<broker::Record> leader_copy = records;
  auto appended = leader_node.broker->produce(topic, partition,
                                              std::move(leader_copy),
                                              client_id);
  if (!appended.ok()) return appended.status();
  const std::uint64_t first = appended.value();

  wait.acks = acks;
  wait.target = first + records.size();
  wait.satisfied = 1;  // the leader itself
  const std::size_t quorum = meta.replicas.size() / 2 + 1;
  switch (acks) {
    case AckPolicy::kLeader: wait.required = 1; break;
    case AckPolicy::kQuorum: wait.required = quorum; break;
    case AckPolicy::kAll:
      wait.required = std::max<std::size_t>(meta.isr.size(), 1);
      break;
  }
  wait.replicas = meta.replicas;  // eligibility re-checked per ack poll
  // The leader's just-appended batch, fetched back lazily (hot-window
  // read, shared payload views) the first time a follower needs it:
  // replication ships the records *with the leader's broker timestamps*,
  // so every replica carries the same timestamp per offset and age-based
  // retention agrees across a failover.
  std::vector<broker::ConsumedRecord> stamped;
  for (BrokerId r : meta.replicas) {
    if (r == meta.leader) continue;
    Node& node = nodes_[r];
    if (!node.alive || node.isolated) continue;
    if (ps.pending_truncate.count(r) != 0) continue;
    // Synchronous push to followers that are exactly caught up — the
    // common case. A lagging follower is left to the catch-up pump (and
    // the caller's ack wait) instead of blocking the produce path.
    auto follower_end = node.broker->end_offset(topic, partition);
    if (!follower_end.ok() || follower_end.value() != first) continue;
    if (stamped.empty()) {
      broker::FetchSpec spec;
      spec.offset = first;
      spec.max_records = records.size();
      spec.max_bytes = std::numeric_limits<std::uint64_t>::max();
      auto fetched = leader_node.broker->fetch(topic, partition, spec);
      if (!fetched.ok() || fetched.value().size() != records.size()) {
        break;  // retention raced the read-back; the pump catches up
      }
      stamped = std::move(fetched).value();
    }
    std::vector<broker::ConsumedRecord> copy = stamped;
    if (node.broker->replicate(topic, partition, std::move(copy)).ok()) {
      ++wait.satisfied;
    }
  }
  wake(ps);
  return first;
}

void BrokerCluster::park(PartitionState& ps,
                         const std::shared_ptr<Waiter>& waiter) {
  MutexLock lock(ps.park_mutex);
  pe::park(ps.parked, waiter);
}

void BrokerCluster::wake(PartitionState& ps) {
  UniqueLock lock(ps.park_mutex);
  const ParkedWaiters taken = std::exchange(ps.parked, {});
  lock.unlock();
  notify_all(taken);
}

Status BrokerCluster::await_acks(const std::string& topic,
                                 std::uint32_t partition,
                                 const AckWait& wait) const {
  if (wait.satisfied >= wait.required) return Status::Ok();
  const auto deadline = Clock::deadline_in(options_.ack_timeout);
  const auto waiter = std::make_shared<Waiter>();
  while (true) {
    const std::uint64_t seen = waiter->epoch();
    std::size_t acked = 0;
    {
      ReaderLock lock(mutex_);
      auto found = find_partition_locked(topic, partition);
      if (!found.ok()) return found.status();
      PartitionState& ps = *found.value();
      park(ps, waiter);
      for (BrokerId r : wait.replicas) {
        const Node& node = nodes_[r];
        // Only a replica that can vouch for a valid copy counts: a dead
        // durable broker loses its unsynced tail on recovery, an
        // isolated one is unreachable, and a replica awaiting a
        // divergence-repair truncation matches the target with garbage.
        // Mirrors the eligibility filter on the synchronous push path.
        if (!node.alive || node.isolated) continue;
        if (ps.pending_truncate.count(r) != 0) continue;
        auto end = node.broker->end_offset(topic, partition);
        if (end.ok() && end.value() >= wait.target) ++acked;
      }
    }
    if (acked >= wait.required) return Status::Ok();
    if (Clock::now() >= deadline) {
      tel::MetricsRegistry::global().counter("cluster.ack_timeouts").add();
      return Status::Timeout(
          "acks=" + std::string(to_string(wait.acks)) + " on " +
          tp_str(topic, partition) + ": " + std::to_string(acked) + "/" +
          std::to_string(wait.required) +
          " replicas caught up within the ack timeout");
    }
    waiter->wait(seen, deadline);
  }
}

Result<std::uint64_t> BrokerCluster::produce(
    BrokerId via, const std::string& topic, std::uint32_t partition,
    std::vector<broker::Record> records, std::optional<AckPolicy> acks,
    const std::string& client_id) {
  if (records.empty()) return Status::InvalidArgument("empty produce batch");
  std::uint64_t first = 0;
  AckWait wait;
  {
    ReaderLock lock(mutex_);
    auto found = led_partition_locked(via, topic, partition);
    if (!found.ok()) return found.status();
    PartitionState& ps = *found.value();
    const PartitionMeta meta = ps.meta;
    MutexLock append_lock(ps.append_mutex);
    auto appended = replicated_append_locked(
        topic, partition, ps, meta, records,
        acks.value_or(options_.default_acks), client_id, wait);
    if (!appended.ok()) return appended.status();
    first = appended.value();
  }
  // Resolved once: a registry lookup per produce takes a mutex and
  // allocates the name.
  static tel::Counter& records_produced =
      tel::MetricsRegistry::global().counter("cluster.records_produced");
  records_produced.add(records.size());
  if (auto s = await_acks(topic, partition, wait); !s.ok()) return s;
  return first;
}

std::uint64_t BrokerCluster::high_watermark_locked(
    const std::string& topic, std::uint32_t partition,
    const PartitionState& ps) const {
  // The quorum-th largest end offset across the replica set: everything
  // below it is on a majority of replicas, so any electable candidate set
  // still contains it after a minority of failures. Dead replicas count
  // with their frozen (pre-crash) ends capped by pending truncations —
  // using 0 instead would be safe but would stall the watermark whenever
  // one replica is down.
  std::vector<std::uint64_t> ends;
  ends.reserve(ps.meta.replicas.size());
  for (BrokerId r : ps.meta.replicas) {
    auto end = nodes_[r].broker->end_offset(topic, partition);
    std::uint64_t e = end.ok() ? end.value() : 0;
    auto it = ps.pending_truncate.find(r);
    if (it != ps.pending_truncate.end()) e = std::min(e, it->second);
    ends.push_back(e);
  }
  std::sort(ends.begin(), ends.end(), std::greater<>());
  const std::size_t quorum = ends.size() / 2 + 1;
  return ends[quorum - 1];
}

Result<std::vector<broker::ConsumedRecord>> BrokerCluster::fetch(
    BrokerId via, const std::string& topic, std::uint32_t partition,
    broker::FetchSpec spec) const {
  // Parked against the high watermark here, not in the leader's log.
  const std::shared_ptr<Waiter> waiter = std::exchange(spec.waiter, nullptr);
  ReaderLock lock(mutex_);
  auto found = led_partition_locked(via, topic, partition);
  if (!found.ok()) {
    // Elections take the lock this reader holds: none slips past the park.
    auto known = find_partition_locked(topic, partition);
    if (known.ok()) park(*known.value(), waiter);
    return found.status();
  }
  PartitionState& ps = *found.value();
  std::uint64_t hw = high_watermark_locked(topic, partition, ps);
  if (spec.offset == hw && waiter) {
    // Replica ends move under the shared lock: re-read after the park.
    park(ps, waiter);
    hw = high_watermark_locked(topic, partition, ps);
  }
  if (spec.offset > hw) {
    return Status::OutOfRange("fetch offset " + std::to_string(spec.offset) +
                              " beyond high watermark " + std::to_string(hw));
  }
  if (spec.offset == hw) return std::vector<broker::ConsumedRecord>{};
  spec.max_records = static_cast<std::size_t>(
      std::min<std::uint64_t>(spec.max_records, hw - spec.offset));
  auto fetched = nodes_[ps.meta.leader].broker->fetch(topic, partition, spec);
  if (!fetched.ok()) return fetched.status();
  auto records = std::move(fetched).value();
  while (!records.empty() && records.back().offset >= hw) records.pop_back();
  return records;
}

Result<std::uint64_t> BrokerCluster::high_watermark(
    const std::string& topic, std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  auto found = find_partition_locked(topic, partition);
  if (!found.ok()) return found.status();
  return high_watermark_locked(topic, partition, *found.value());
}

Result<std::uint64_t> BrokerCluster::log_start_offset(
    const std::string& topic, std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  auto found = find_partition_locked(topic, partition);
  if (!found.ok()) return found.status();
  const BrokerId leader = found.value()->meta.leader;
  if (leader == kNoBroker) return leaderless_status(topic, partition);
  return nodes_[leader].broker->log_start_offset(topic, partition);
}

// --- consumer groups -------------------------------------------------------

std::shared_ptr<broker::Broker> BrokerCluster::offsets_leader() const {
  ReaderLock lock(mutex_);
  auto found = find_partition_locked(kOffsetsTopic, 0);
  if (!found.ok()) return nullptr;
  const BrokerId leader = found.value()->meta.leader;
  if (leader == kNoBroker) return nullptr;
  const Node& node = nodes_[leader];
  if (!node.alive || node.isolated) return nullptr;
  return node.broker;
}

std::uint64_t BrokerCluster::offsets_epoch() const {
  ReaderLock lock(mutex_);
  auto found = find_partition_locked(kOffsetsTopic, 0);
  return found.ok() ? found.value()->meta.epoch : 0;
}

Status BrokerCluster::commit_offset(const std::string& group,
                                    const broker::TopicPartition& tp,
                                    std::uint64_t offset, std::uint64_t epoch) {
  AckWait wait;
  {
    ReaderLock lock(mutex_);
    auto found = find_partition_locked(kOffsetsTopic, 0);
    if (!found.ok()) return found.status();
    PartitionState& ps = *found.value();
    const PartitionMeta meta = ps.meta;
    if (meta.leader == kNoBroker) {
      return Status::Unavailable("offsets partition is leaderless");
    }
    if (epoch != meta.epoch) {
      // Epoch fence: a commit addressed at a deposed offsets leader must
      // not land — the client refreshes the epoch and retries against
      // the new leader's coordinator state.
      tel::MetricsRegistry::global()
          .counter("cluster.stale_epoch_commits")
          .add();
      return Status::NotLeader("offsets epoch " + std::to_string(epoch) +
                               " is stale (current " +
                               std::to_string(meta.epoch) + ")");
    }
    Node& leader_node = nodes_[meta.leader];
    if (!leader_node.alive || leader_node.isolated) {
      return Status::Unavailable(broker_name_for(meta.leader) +
                                 " is unreachable");
    }
    // Append + apply under one lock: the coordinator's committed-offset
    // table stays exactly the fold of the log prefix, so a replay on the
    // next leader reproduces it.
    MutexLock apply_lock(offsets_mutex_);
    MutexLock append_lock(ps.append_mutex);
    broker::Record rec;
    rec.key = group;
    rec.value = broker::Payload(broker::encode_committed_offset(tp, offset));
    auto appended = replicated_append_locked(
        kOffsetsTopic, 0, ps, meta, {std::move(rec)}, AckPolicy::kQuorum,
        /*client_id=*/{}, wait);
    if (!appended.ok()) return appended.status();
    leader_node.broker->coordinator().restore_offset(group, tp, offset);
  }
  return await_acks(kOffsetsTopic, 0, wait);
}

std::optional<std::uint64_t> BrokerCluster::committed_offset(
    const std::string& group, const broker::TopicPartition& tp) const {
  auto b = offsets_leader();
  if (!b) return std::nullopt;
  return b->coordinator().committed_offset(group, tp);
}

// --- chaos hooks -----------------------------------------------------------

Status BrokerCluster::kill_broker(BrokerId id) {
  WriterLock lock(mutex_);
  if (id >= nodes_.size()) {
    return Status::NotFound("unknown broker id " + std::to_string(id));
  }
  Node& node = nodes_[id];
  if (!node.alive) return Status::Ok();
  node.alive = false;
  tel::MetricsRegistry::global().counter("cluster.broker_kills").add();
  PE_LOG_INFO("cluster: " << node.broker->name()
                          << " killed; heartbeat now stale");
  return Status::Ok();
}

Status BrokerCluster::kill_broker(const std::string& name) {
  const BrokerId id = broker_id(name);
  if (id == kNoBroker) return Status::NotFound("unknown broker '" + name + "'");
  return kill_broker(id);
}

Status BrokerCluster::restore_broker(BrokerId id, double keep_fraction) {
  WriterLock lock(mutex_);
  if (id >= nodes_.size()) {
    return Status::NotFound("unknown broker id " + std::to_string(id));
  }
  Node& node = nodes_[id];
  if (node.isolated) {
    node.isolated = false;
    node.last_heartbeat = Clock::now();
    PE_LOG_INFO("cluster: " << node.broker->name() << " reconnected");
    return Status::Ok();
  }
  if (node.alive) return Status::Ok();

  // A restored member never resumes leadership it nominally still holds:
  // leadership moves (or the partition goes leaderless) first, which also
  // records the divergence-repair truncation for this member. Without
  // this, a durable member that lost its unsynced tail could come back as
  // "leader" with a shorter log than its followers.
  for (auto& [topic, ts] : topics_) {
    for (std::uint32_t p = 0; p < ts.partitions.size(); ++p) {
      if (ts.partitions[p]->meta.leader == id) {
        elect_locked(topic, p, *ts.partitions[p]);
      }
    }
  }

  if (node.broker->durable()) {
    auto recovered = node.broker->crash_and_recover(keep_fraction);
    if (!recovered.ok()) return recovered.status();
  }
  // Topics created while the member was down (or whose durable intent was
  // lost with the crash) are re-created empty; the pump backfills them.
  for (const auto& [topic, ts] : topics_) {
    if (node.broker->has_topic(topic)) continue;
    broker::TopicConfig tc;
    tc.partitions = ts.config.partitions;
    tc.retention = ts.config.retention;
    if (auto s = node.broker->create_topic(topic, tc); !s.ok()) {
      PE_LOG_WARN("re-create '" << topic << "' on " << node.broker->name()
                                << ": " << s.to_string());
    }
  }
  node.alive = true;
  node.last_heartbeat = Clock::now();
  tel::MetricsRegistry::global().counter("cluster.broker_restores").add();
  PE_LOG_INFO("cluster: " << node.broker->name()
                          << " restored; rejoining as follower");
  return Status::Ok();
}

Status BrokerCluster::restore_broker(const std::string& name,
                                     double keep_fraction) {
  const BrokerId id = broker_id(name);
  if (id == kNoBroker) return Status::NotFound("unknown broker '" + name + "'");
  return restore_broker(id, keep_fraction);
}

Status BrokerCluster::set_broker_isolated(BrokerId id, bool isolated) {
  WriterLock lock(mutex_);
  if (id >= nodes_.size()) {
    return Status::NotFound("unknown broker id " + std::to_string(id));
  }
  Node& node = nodes_[id];
  if (!node.alive) {
    return Status::FailedPrecondition(node.broker->name() + " is dead");
  }
  node.isolated = isolated;
  if (!isolated) node.last_heartbeat = Clock::now();
  PE_LOG_INFO("cluster: " << node.broker->name()
                          << (isolated ? " isolated" : " reconnected"));
  return Status::Ok();
}

Status BrokerCluster::set_broker_isolated(const std::string& name,
                                          bool isolated) {
  const BrokerId id = broker_id(name);
  if (id == kNoBroker) return Status::NotFound("unknown broker '" + name + "'");
  return set_broker_isolated(id, isolated);
}

bool BrokerCluster::broker_alive(BrokerId id) const {
  ReaderLock lock(mutex_);
  return id < nodes_.size() && nodes_[id].alive && !nodes_[id].isolated;
}

bool BrokerCluster::all_partitions_led() const {
  ReaderLock lock(mutex_);
  for (const auto& [topic, ts] : topics_) {
    for (const auto& ps : ts.partitions) {
      const BrokerId l = ps->meta.leader;
      if (l == kNoBroker) return false;
      if (!nodes_[l].alive || nodes_[l].isolated) return false;
    }
  }
  return true;
}

bool BrokerCluster::replicas_converged(const std::string& topic,
                                       std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  auto found = find_partition_locked(topic, partition);
  if (!found.ok()) return false;
  const PartitionState& ps = *found.value();
  std::optional<std::uint64_t> expect;
  for (BrokerId r : ps.meta.replicas) {
    const Node& node = nodes_[r];
    if (!node.alive || node.isolated) continue;
    if (ps.pending_truncate.count(r) != 0) return false;
    auto end = node.broker->end_offset(topic, partition);
    if (!end.ok()) return false;
    if (expect && *expect != end.value()) return false;
    expect = end.value();
  }
  return expect.has_value();
}

// --- controller ------------------------------------------------------------

void BrokerCluster::controller_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    tick();
    Clock::sleep_scaled(options_.heartbeat_interval);
  }
}

void BrokerCluster::tick() {
  admin_phase();
  auto changes = replicate_phase();
  if (!changes.empty()) apply_isr_changes(changes);
}

void BrokerCluster::admin_phase() {
  WriterLock lock(mutex_);
  const TimePoint now = Clock::now();
  for (Node& node : nodes_) {
    if (node.alive && !node.isolated) node.last_heartbeat = now;
  }
  const auto session_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              options_.session_timeout)
                              .count());
  for (auto& [topic, ts] : topics_) {
    for (std::uint32_t p = 0; p < ts.partitions.size(); ++p) {
      PartitionState& ps = *ts.partitions[p];
      // Divergence repair: a replica that came back after losing
      // leadership truncates its un-replicated suffix before the pump
      // lets it back into replication.
      for (auto it = ps.pending_truncate.begin();
           it != ps.pending_truncate.end();) {
        Node& node = nodes_[it->first];
        if (node.alive && !node.isolated &&
            node.broker->truncate_partition(topic, p, it->second).ok()) {
          tel::MetricsRegistry::global().counter("cluster.truncations").add();
          it = ps.pending_truncate.erase(it);
          wake(ps);
        } else {
          ++it;
        }
      }
      const BrokerId l = ps.meta.leader;
      if (l == kNoBroker) {
        // Leaderless: re-elect as soon as any replica is reachable again.
        for (BrokerId r : ps.meta.replicas) {
          if (nodes_[r].alive && !nodes_[r].isolated) {
            elect_locked(topic, p, ps);
            break;
          }
        }
        continue;
      }
      Node& leader_node = nodes_[l];
      if (leader_node.alive && !leader_node.isolated) continue;
      if (emulated_age_ns(leader_node.last_heartbeat, now) >= session_ns) {
        elect_locked(topic, p, ps);
      }
    }
  }
}

void BrokerCluster::elect_locked(const std::string& topic,
                                 std::uint32_t partition, PartitionState& ps) {
  const BrokerId old_leader = ps.meta.leader;
  // Most-caught-up live replica wins. A replica with a pending truncation
  // competes with its *effective* end (everything below the truncation
  // point is a verified prefix of the last leader's log; the suffix is
  // garbage that will be cut), so a deposed-but-repairable log still
  // beats a genuinely shorter one.
  BrokerId winner = kNoBroker;
  std::uint64_t winner_end = 0;
  for (BrokerId r : ps.meta.replicas) {
    const Node& node = nodes_[r];
    if (!node.alive || node.isolated) continue;
    auto end = node.broker->end_offset(topic, partition);
    if (!end.ok()) continue;
    std::uint64_t effective = end.value();
    auto it = ps.pending_truncate.find(r);
    if (it != ps.pending_truncate.end()) {
      effective = std::min(effective, it->second);
    }
    if (winner == kNoBroker || effective > winner_end) {
      winner = r;
      winner_end = effective;
    }
  }
  if (winner == kNoBroker) {
    if (old_leader != kNoBroker) {
      PE_LOG_WARN("cluster: " << tp_str(topic, partition)
                              << " leaderless (no live replica)");
    }
    ps.meta.leader = kNoBroker;
    ps.meta.isr.clear();
    wake(ps);
    return;
  }
  if (auto it = ps.pending_truncate.find(winner);
      it != ps.pending_truncate.end()) {
    if (!nodes_[winner].broker->truncate_partition(topic, partition,
                                                   it->second)
             .ok()) {
      return;  // repair failed; retry the election next tick
    }
    tel::MetricsRegistry::global().counter("cluster.truncations").add();
    ps.pending_truncate.erase(it);
  }
  ps.meta.leader = winner;
  ps.meta.epoch += 1;
  ps.meta.isr = {winner};
  // Anything any other replica holds beyond the new leader's end was
  // never quorum-committed; mark it for truncation so logs stay exact
  // prefixes of the leader's.
  for (BrokerId r : ps.meta.replicas) {
    if (r == winner) continue;
    auto end = nodes_[r].broker->end_offset(topic, partition);
    if (end.ok() && end.value() > winner_end) {
      auto [it, inserted] = ps.pending_truncate.try_emplace(r, winner_end);
      if (!inserted) it->second = std::min(it->second, winner_end);
    }
  }
  if (old_leader != kNoBroker && old_leader != winner) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
    tel::MetricsRegistry::global().counter("cluster.failovers").add();
    tel::MetricsRegistry::global()
        .histogram("cluster.failover_detect_ms")
        .record(emulated_age_ns(nodes_[old_leader].last_heartbeat,
                                Clock::now()) /
                1e6);
  }
  if (topic == kOffsetsTopic) replay_offsets_locked(winner);
  wake(ps);
  PE_LOG_INFO("cluster: " << tp_str(topic, partition) << " leader -> "
                          << broker_name_for(winner) << " (epoch "
                          << ps.meta.epoch << ", end " << winner_end << ")");
}

void BrokerCluster::replay_offsets_locked(BrokerId id) {
  // The committed-offset table of a new offsets leader is exactly the
  // fold of its local __offsets replica (last write per group+partition
  // wins). Soft state — membership, generations — is dropped and re-forms
  // as consumers rejoin.
  broker::Broker& b = *nodes_[id].broker;
  b.coordinator().reset();
  auto start = b.log_start_offset(kOffsetsTopic, 0);
  auto end = b.end_offset(kOffsetsTopic, 0);
  if (!start.ok() || !end.ok()) return;
  std::uint64_t replayed = 0;
  std::uint64_t off = start.value();
  while (off < end.value()) {
    broker::FetchSpec spec;
    spec.offset = off;
    auto batch = b.fetch(kOffsetsTopic, 0, spec);
    if (!batch.ok() || batch.value().empty()) break;
    for (const auto& cr : batch.value()) {
      broker::TopicPartition tp;
      std::uint64_t offset = 0;
      if (broker::decode_committed_offset(cr.record.value.span(), &tp,
                                          &offset)) {
        b.coordinator().restore_offset(cr.record.key, tp, offset);
        ++replayed;
      }
      off = cr.offset + 1;
    }
  }
  tel::MetricsRegistry::global().counter("cluster.offsets_replays").add();
  PE_LOG_INFO("cluster: replayed " << replayed << " offset commits into "
                                   << b.name());
}

std::vector<BrokerCluster::IsrChange> BrokerCluster::replicate_phase() {
  std::vector<IsrChange> changes;
  ReaderLock lock(mutex_);
  for (auto& [topic, ts] : topics_) {
    for (std::uint32_t p = 0; p < ts.partitions.size(); ++p) {
      PartitionState& ps = *ts.partitions[p];
      const PartitionMeta& meta = ps.meta;
      if (meta.leader == kNoBroker) continue;
      Node& leader_node = nodes_[meta.leader];
      if (!leader_node.alive || leader_node.isolated) continue;

      MutexLock append_lock(ps.append_mutex);
      auto leader_end = leader_node.broker->end_offset(topic, p);
      if (!leader_end.ok()) continue;
      const std::uint64_t l_end = leader_end.value();

      std::vector<BrokerId> isr;
      isr.push_back(meta.leader);
      for (BrokerId r : meta.replicas) {
        if (r == meta.leader) continue;
        Node& node = nodes_[r];
        if (!node.alive || node.isolated) continue;
        if (ps.pending_truncate.count(r) != 0) continue;
        auto follower_end = node.broker->end_offset(topic, p);
        if (!follower_end.ok()) continue;
        std::uint64_t f_end = follower_end.value();

        // Catch-up stream: bounded batches out of the leader's log. Cold
        // reads below the leader's hot window come straight out of the
        // mmap'd segment files as shared payload views — segment shipping
        // without a copy.
        std::size_t copied = 0;
        std::uint64_t copied_bytes = 0;
        while (f_end < l_end && copied < kReplicationBatchRecords &&
               copied_bytes < kReplicationBatchBytes) {
          broker::FetchSpec spec;
          spec.offset = f_end;
          spec.max_records = static_cast<std::size_t>(std::min<std::uint64_t>(
              kReplicationBatchRecords - copied, l_end - f_end));
          spec.max_bytes = kReplicationBatchBytes - copied_bytes;
          auto batch = leader_node.broker->fetch(topic, p, spec);
          if (!batch.ok()) {
            // Typically OUT_OF_RANGE: the leader retained past the
            // follower's end (retention gap). The follower stays out of
            // the ISR; snapshot shipping is future work (DESIGN.md §10).
            break;
          }
          if (batch.value().empty()) break;
          for (const auto& cr : batch.value()) {
            copied_bytes += cr.record.wire_size();
          }
          const std::size_t n = batch.value().size();
          // Replicate (not produce): the follower appends the leader's
          // records with the leader's broker timestamps, keeping age
          // retention consistent per offset across every replica.
          if (!node.broker->replicate(topic, p, std::move(batch).value())
                   .ok()) {
            break;
          }
          f_end += n;
          copied += n;
          static tel::Counter& replicated_records =
              tel::MetricsRegistry::global().counter(
                  "cluster.replicated_records");
          replicated_records.add(n);
        }
        if (copied > 0) wake(ps);
        if (l_end - f_end <= kIsrMaxLagRecords) isr.push_back(r);
      }
      std::sort(isr.begin(), isr.end());
      if (isr != meta.isr) {
        changes.push_back(IsrChange{topic, p, meta.epoch, std::move(isr)});
      }
    }
  }
  return changes;
}

void BrokerCluster::apply_isr_changes(const std::vector<IsrChange>& changes) {
  WriterLock lock(mutex_);
  for (const auto& change : changes) {
    auto found = find_partition_locked(change.topic, change.partition);
    if (!found.ok()) continue;
    PartitionState& ps = *found.value();
    // An election between the pump pass and here invalidates the
    // observation — the new epoch's ISR starts over from the leader.
    if (ps.meta.epoch != change.epoch) continue;
    ps.meta.isr = change.isr;
  }
}

}  // namespace pe::cluster
