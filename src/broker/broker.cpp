#include "broker/broker.h"

#include <limits>

#include "common/logging.h"
#include "common/serialize.h"
#include "telemetry/metrics.h"

namespace pe::broker {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// --- durable record formats ---
// Topic intent (key = topic name):
//   u8 op (1 create) | u32 partitions | u64 max_records |
//   u64 max_bytes | u64 max_age_ns | u8 partitioner | u64 hot_max_bytes
// Committed offset (key = group id): encode_committed_offset.

constexpr std::uint8_t kCreateIntent = 1;

Bytes encode_topic_intent(const TopicConfig& config) {
  Bytes out;
  ByteWriter w(out);
  w.put_u8(kCreateIntent);
  w.put_u32(config.partitions);
  w.put_u64(config.retention.max_records);
  w.put_u64(config.retention.max_bytes);
  w.put_u64(static_cast<std::uint64_t>(config.retention.max_age.count()));
  w.put_u8(static_cast<std::uint8_t>(config.partitioner));
  w.put_u64(config.retention.hot_max_bytes);
  return out;
}

/// False for a short intent or any op other than create.
bool decode_topic_intent(ByteSpan bytes, TopicConfig* config) {
  ByteReader r(bytes);
  std::uint8_t op = 0, partitioner = 0;
  std::uint64_t max_age_ns = 0;
  if (!r.get_u8(op).ok() || op != kCreateIntent ||
      !r.get_u32(config->partitions).ok() ||
      !r.get_u64(config->retention.max_records).ok() ||
      !r.get_u64(config->retention.max_bytes).ok() ||
      !r.get_u64(max_age_ns).ok() || !r.get_u8(partitioner).ok() ||
      !r.get_u64(config->retention.hot_max_bytes).ok()) {
    return false;
  }
  config->retention.max_age = Duration(max_age_ns);
  config->partitioner = static_cast<PartitionerKind>(partitioner);
  return true;
}

void merge_report(storage::RecoveryReport* into,
                  const storage::RecoveryReport& from) {
  into->segments_scanned += from.segments_scanned;
  into->records_recovered += from.records_recovered;
  into->bytes_recovered += from.bytes_recovered;
  into->torn_bytes_truncated += from.torn_bytes_truncated;
  into->segments_deleted += from.segments_deleted;
  into->elapsed += from.elapsed;
}

/// Walks every record currently retained in a LogDir, in offset order.
template <typename Fn>
Status replay_log(storage::LogDir& log, Fn&& fn) {
  std::uint64_t offset = log.start_offset();
  const std::uint64_t end = log.end_offset();
  while (offset < end) {
    auto batch = log.fetch(offset, 512,
                           std::numeric_limits<std::uint64_t>::max());
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (const auto& r : batch.value()) fn(r);
    offset = batch.value().back().offset + 1;
  }
  return Status::Ok();
}

}  // namespace

Broker::Broker(net::SiteId site, std::string name)
    : Broker(std::move(site), BrokerOptions{}, std::move(name)) {}

Broker::Broker(net::SiteId site, BrokerOptions options, std::string name)
    : site_(std::move(site)),
      name_(std::move(name)),
      options_(std::move(options)),
      coordinator_([this](const std::string& topic) {
        return partition_count(topic);
      }),
      admission_(options_.admission) {
  if (!durable()) return;
  {
    WriterLock lock(mutex_);
    storage::RecoveryReport report;
    if (auto s = recover_locked(&report); !s.ok()) {
      PE_LOG_ERROR("broker durable recovery failed (continuing without "
                   "durability): "
                   << s.to_string());
    }
  }
  coordinator_.set_commit_listener(
      [this](const std::string& group, const TopicPartition& tp,
             std::uint64_t offset) { persist_commit(group, tp, offset); });
}

Status Broker::recover_locked(storage::RecoveryReport* report) {
  // Control-plane logs are always fully synced: losing a topic intent or
  // a committed offset would violate the durability contract outright.
  storage::StorageConfig control_cfg = options_.storage;
  control_cfg.flush_policy = storage::FlushPolicy::kEverySync;

  storage::RecoveryReport sub;
  auto meta = storage::LogDir::open(options_.durable_dir + "/__meta",
                                    control_cfg, &sub);
  if (!meta.ok()) return meta.status();
  meta_log_ = std::move(meta).value();
  merge_report(report, sub);

  // Replay the create intents; the last one per topic wins.
  std::map<std::string, TopicConfig> intents;
  auto replayed = replay_log(*meta_log_, [&](const ConsumedRecord& r) {
    TopicConfig config;
    if (!decode_topic_intent(r.record.value, &config)) {
      PE_LOG_WARN("skipping malformed topic intent at offset " << r.offset);
      return;
    }
    intents[r.record.key] = config;
  });
  if (!replayed.ok()) return replayed;

  for (const auto& [tname, config] : intents) {
    auto topic = std::make_shared<Topic>(tname, config, topic_dir(tname),
                                         options_.storage);
    topic->set_hot_bytes_counter(admission_.hot_bytes_counter());
    for (std::uint32_t p = 0; p < topic->partition_count(); ++p) {
      merge_report(report, topic->partition(p)->recovery_report());
    }
    topics_.emplace(tname, std::move(topic));
  }

  sub = {};
  auto offsets = storage::LogDir::open(options_.durable_dir + "/__offsets",
                                       control_cfg, &sub);
  if (!offsets.ok()) return offsets.status();
  offsets_log_ = std::move(offsets).value();
  merge_report(report, sub);

  return replay_log(*offsets_log_, [&](const ConsumedRecord& r) {
    TopicPartition tp;
    std::uint64_t offset = 0;
    if (!decode_committed_offset(r.record.value, &tp, &offset)) {
      PE_LOG_WARN("skipping malformed committed offset at offset "
                  << r.offset);
      return;
    }
    coordinator_.restore_offset(r.record.key, tp, offset);
  });
}

Status Broker::persist_topic_intent_locked(const std::string& name,
                                           const TopicConfig& config) {
  if (!meta_log_) return Status::Ok();
  Record record;
  record.key = name;
  record.value = encode_topic_intent(config);
  auto appended = meta_log_->append(record, Clock::now_ns());
  return appended.ok() ? Status::Ok() : appended.status();
}

void Broker::persist_commit(const std::string& group,
                            const TopicPartition& tp, std::uint64_t offset) {
  ReaderLock lock(mutex_);
  if (!offsets_log_) return;
  Record record;
  record.key = group;
  record.value = encode_committed_offset(tp, offset);
  // The offsets log runs kEverySync: the commit is on stable storage
  // before the consumer's poll returns.
  if (auto r = offsets_log_->append(record, Clock::now_ns()); !r.ok()) {
    PE_LOG_WARN("persisting committed offset failed: "
                << r.status().to_string());
  }
}

Result<storage::RecoveryReport> Broker::crash_and_recover(
    double keep_fraction) {
  if (!durable()) {
    return Status::FailedPrecondition("broker '" + name_ +
                                      "' has no durable storage");
  }
  const auto t0 = Clock::now();
  WriterLock lock(mutex_);
  // Power-cut every log: fsynced prefixes survive, unsynced tails are
  // (partially) lost — possibly mid-batch, which recovery must truncate.
  for (auto& [tname, topic] : topics_) {
    for (std::uint32_t p = 0; p < topic->partition_count(); ++p) {
      topic->partition(p)->simulate_power_loss(keep_fraction);
    }
  }
  if (meta_log_) meta_log_->simulate_power_loss(keep_fraction);
  if (offsets_log_) offsets_log_->simulate_power_loss(keep_fraction);

  // Drop every piece of in-memory state a real process death would take.
  topics_.clear();
  offline_partitions_.clear();
  meta_log_.reset();
  offsets_log_.reset();
  coordinator_.reset();

  storage::RecoveryReport report;
  if (auto s = recover_locked(&report); !s.ok()) return s;
  const double ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          Clock::now() - t0)
          .count();
  tel::MetricsRegistry::global().histogram("broker.crash_recovery_ms")
      .record(ms);
  return report;
}

Status Broker::create_topic(const std::string& name, TopicConfig config) {
  if (name.empty()) return Status::InvalidArgument("empty topic name");
  if (config.partitions == 0) {
    return Status::InvalidArgument("topic needs >= 1 partition");
  }
  WriterLock lock(mutex_);
  if (topics_.count(name) > 0) {
    return Status::AlreadyExists("topic '" + name + "' exists");
  }
  // Write-ahead: the intent is durable before the topic serves traffic.
  // A disk failure degrades loudly to an in-memory topic rather than
  // refusing service.
  if (auto s = persist_topic_intent_locked(name, config); !s.ok()) {
    PE_LOG_WARN("topic intent not persisted: " << s.to_string());
  }
  auto topic = std::make_shared<Topic>(
      name, config, durable() ? topic_dir(name) : std::string(),
      options_.storage);
  topic->set_hot_bytes_counter(admission_.hot_bytes_counter());
  topics_.emplace(name, std::move(topic));
  return Status::Ok();
}

bool Broker::has_topic(const std::string& name) const {
  ReaderLock lock(mutex_);
  return topics_.count(name) > 0;
}

std::uint32_t Broker::partition_count(const std::string& name) const {
  auto topic = find_topic(name);
  return topic ? topic->partition_count() : 0;
}

std::vector<std::string> Broker::topic_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(topics_.size());
  for (const auto& [n, _] : topics_) out.push_back(n);
  return out;
}

std::shared_ptr<Topic> Broker::find_topic(const std::string& name) const {
  ReaderLock lock(mutex_);
  auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<PartitionLog>> Broker::find_partition(
    const std::string& topic, std::uint32_t partition) const {
  auto t = find_topic(topic);
  if (!t) return Status::NotFound("topic '" + topic + "' not found");
  PartitionLog* log = t->partition(partition);
  if (!log) {
    return Status::OutOfRange("partition " + std::to_string(partition) +
                              " out of range for topic '" + topic + "'");
  }
  return std::shared_ptr<PartitionLog>(std::move(t), log);
}

Result<std::uint64_t> Broker::produce(const std::string& topic,
                                      std::uint32_t partition,
                                      std::vector<Record> records,
                                      const std::string& client_id) {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  if (partition_offline(topic, partition)) {
    return Status::Unavailable("partition " + topic + "/" +
                               std::to_string(partition) + " offline");
  }
  PartitionLog& log = *found.value();
  std::uint64_t bytes = 0;
  for (const auto& r : records) bytes += r.wire_size();
  const auto count = records.size();
  stats_.produce_requests.fetch_add(1, kRelaxed);

  // Admission: quota gate first (cheap bucket math), then the hot-window
  // reservation. Both reject with a transient throttle, never a drop.
  if (auto s = admission_.admit(client_id, count, bytes); !s.ok()) {
    stats_.throttled.fetch_add(1, kRelaxed);
    stats_.quota_rejections.fetch_add(1, kRelaxed);
    tel::MetricsRegistry::global().counter("broker.throttled").add();
    tel::MetricsRegistry::global().counter("broker.quota_rejections").add();
    return s;
  }
  auto reserved = admission_.reserve_hot(bytes);
  if (!reserved.ok()) {
    // One forced retention/hot-trim pass on the target partition may free
    // enough hot memory to admit without waiting out the throttle.
    log.enforce_retention();
    reserved = admission_.reserve_hot(bytes);
  }
  if (!reserved.ok()) {
    // The cap is broker-wide but the trim above is per-partition: the
    // memory may be parked in OTHER partitions, each individually under
    // its hot_max_bytes... or not trimmable at all. Sweep every partition
    // once — without this, a broker whose hot memory is spread across
    // partitions throttles forever (no append ever succeeds, so no
    // append-path retention ever runs: a livelock, not backpressure).
    trim_hot_windows();
    reserved = admission_.reserve_hot(bytes);
  }
  if (!reserved.ok()) {
    stats_.throttled.fetch_add(1, kRelaxed);
    tel::MetricsRegistry::global().counter("broker.throttled").add();
    return reserved;
  }

  auto first = log.append_batch(std::move(records));
  // The appended bytes are now carried by the hot counter itself (and any
  // rejected remainder was never appended): drop the reservation.
  admission_.release_hot(bytes);
  if (!first.ok()) return first.status();  // durable failure: nothing acked
  stats_.records_in.fetch_add(count, kRelaxed);
  stats_.bytes_in.fetch_add(bytes, kRelaxed);
  return first.value();
}

void Broker::trim_hot_windows() {
  std::vector<std::shared_ptr<Topic>> topics;
  {
    ReaderLock lock(mutex_);
    topics.reserve(topics_.size());
    for (const auto& [_, t] : topics_) topics.push_back(t);
  }
  for (const auto& t : topics) {
    for (std::uint32_t p = 0; p < t->partition_count(); ++p) {
      if (auto* log = t->partition(p)) log->enforce_retention();
    }
  }
}

void Broker::set_client_quota(const std::string& client, ClientQuota quota) {
  admission_.set_quota(client, quota);
}

Result<std::uint64_t> Broker::replicate(const std::string& topic,
                                        std::uint32_t partition,
                                        std::vector<ConsumedRecord> records) {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  if (partition_offline(topic, partition)) {
    return Status::Unavailable("partition " + topic + "/" +
                               std::to_string(partition) + " offline");
  }
  PartitionLog& log = *found.value();
  std::uint64_t bytes = 0;
  for (const auto& cr : records) bytes += cr.record.wire_size();
  const auto count = records.size();
  auto first = log.append_replicated(std::move(records));
  if (!first.ok()) return first.status();  // replica disk refused: no ack
  stats_.records_in.fetch_add(count, kRelaxed);
  stats_.bytes_in.fetch_add(bytes, kRelaxed);
  return first.value();
}

Result<std::uint32_t> Broker::select_partition(const std::string& topic,
                                               const Record& record) {
  auto t = find_topic(topic);
  if (!t) return Status::NotFound("topic '" + topic + "' not found");
  return t->select_partition(record);
}

Result<std::vector<ConsumedRecord>> Broker::fetch(
    const std::string& topic, std::uint32_t partition,
    const FetchSpec& spec) {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  if (partition_offline(topic, partition)) {
    return Status::Unavailable("partition " + topic + "/" +
                               std::to_string(partition) + " offline");
  }
  PartitionLog& log = *found.value();
  auto result = log.fetch(spec);
  if (!result.ok()) return result.status();
  auto records = std::move(result).value();
  std::uint64_t bytes = 0;
  for (auto& r : records) {
    r.topic = topic;
    r.partition = partition;
    bytes += r.record.wire_size();
  }
  stats_.fetch_requests.fetch_add(1, kRelaxed);
  stats_.records_out.fetch_add(records.size(), kRelaxed);
  stats_.bytes_out.fetch_add(bytes, kRelaxed);
  return records;
}

Result<std::uint64_t> Broker::end_offset(const std::string& topic,
                                         std::uint32_t partition) const {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  return found.value()->end_offset();
}

Result<std::uint64_t> Broker::log_start_offset(const std::string& topic,
                                               std::uint32_t partition) const {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  return found.value()->log_start_offset();
}

Status Broker::truncate_partition(const std::string& topic,
                                  std::uint32_t partition,
                                  std::uint64_t offset) {
  auto found = find_partition(topic, partition);
  if (!found.ok()) return found.status();
  return found.value()->truncate_suffix(offset);
}

Status Broker::dead_letter(const std::string& origin_topic,
                           std::uint32_t origin_partition, Record record,
                           const std::string& reason) {
  if (!has_topic(origin_topic)) {
    return Status::NotFound("topic '" + origin_topic + "' not found");
  }
  const std::string dlq = dead_letter_topic_name(origin_topic);
  TopicConfig config;
  config.partitions = 1;
  if (auto s = create_topic(dlq, config);
      !s.ok() && s.code() != StatusCode::kAlreadyExists) {
    return s;
  }
  // The payload rides along as a shared view; only the key is rewritten.
  record.key = origin_topic + "/" + std::to_string(origin_partition) + "/" +
               reason + "/" + record.key;
  std::vector<Record> batch;
  batch.push_back(std::move(record));
  auto produced = produce(dlq, 0, std::move(batch));
  if (!produced.ok()) return produced.status();
  stats_.records_dead_lettered.fetch_add(1, kRelaxed);
  return Status::Ok();
}

Status Broker::set_partition_offline(const std::string& topic,
                                     std::uint32_t partition, bool offline) {
  auto t = find_topic(topic);
  if (!t) return Status::NotFound("topic '" + topic + "' not found");
  if (partition >= t->partition_count()) {
    return Status::OutOfRange("partition out of range");
  }
  WriterLock lock(mutex_);
  if (offline) {
    offline_partitions_.insert({topic, partition});
  } else {
    offline_partitions_.erase({topic, partition});
  }
  return Status::Ok();
}

bool Broker::partition_offline(const std::string& topic,
                               std::uint32_t partition) const {
  ReaderLock lock(mutex_);
  if (offline_partitions_.empty()) return false;
  return offline_partitions_.count({topic, partition}) > 0;
}

BrokerStats Broker::stats() const {
  BrokerStats out;
  out.records_in = stats_.records_in.load(kRelaxed);
  out.bytes_in = stats_.bytes_in.load(kRelaxed);
  out.records_out = stats_.records_out.load(kRelaxed);
  out.bytes_out = stats_.bytes_out.load(kRelaxed);
  out.produce_requests = stats_.produce_requests.load(kRelaxed);
  out.fetch_requests = stats_.fetch_requests.load(kRelaxed);
  out.records_dead_lettered = stats_.records_dead_lettered.load(kRelaxed);
  out.throttled = stats_.throttled.load(kRelaxed);
  out.quota_rejections = stats_.quota_rejections.load(kRelaxed);
  return out;
}

std::uint64_t Broker::retained_bytes() const {
  ReaderLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [_, t] : topics_) total += t->total_bytes();
  return total;
}

}  // namespace pe::broker
