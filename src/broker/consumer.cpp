#include "broker/consumer.h"

#include <algorithm>

#include "broker/retry.h"
#include "common/ids.h"
#include "common/logging.h"

namespace pe::broker {

// Like Kafka's consumer, this class is intentionally NOT thread-safe: one
// consumer instance belongs to one polling thread.

Consumer::Consumer(std::shared_ptr<Endpoint> endpoint,
                   std::shared_ptr<net::Fabric> fabric, net::SiteId site,
                   std::string group, ConsumerConfig config,
                   std::shared_ptr<const std::atomic<bool>> stop)
    : endpoint_(std::move(endpoint)),
      fabric_(std::move(fabric)),
      site_(std::move(site)),
      group_(std::move(group)),
      id_(next_consumer_id()),
      config_(config),
      stop_(std::move(stop)) {}

Consumer::~Consumer() { close(); }

Status Consumer::subscribe(const std::vector<std::string>& topics) {
  auto joined = retry_transient(
      [&] { return endpoint_->join_group(group_, id_, topics); }, nullptr,
      stop_.get());
  if (!joined.ok()) return joined.status();
  subscribed_ = true;
  subscribed_topics_ = topics;
  positions_.clear();
  apply_assignment(joined.value());
  return Status::Ok();
}

Status Consumer::assign(std::vector<TopicPartition> partitions) {
  for (const auto& tp : partitions) {
    const std::uint32_t count = endpoint_->partition_count(tp.topic);
    if (count == 0) {
      return Status::NotFound("unknown topic '" + tp.topic + "'");
    }
    if (tp.partition >= count) {
      return Status::OutOfRange("partition out of range for " + tp.topic);
    }
  }
  subscribed_ = false;
  assignment_ = std::move(partitions);
  positions_.clear();
  for (const auto& tp : assignment_) {
    if (auto start = initial_position(tp)) positions_[tp] = *start;
  }
  return Status::Ok();
}

bool Consumer::is_assigned(const TopicPartition& tp) const {
  return std::find(assignment_.begin(), assignment_.end(), tp) !=
         assignment_.end();
}

std::optional<std::uint64_t> Consumer::initial_position(
    const TopicPartition& tp) {
  if (auto offset = endpoint_->committed_offset(group_, tp)) return offset;
  return reset_position(tp);
}

std::optional<std::uint64_t> Consumer::reset_position(
    const TopicPartition& tp) {
  auto start = config_.offset_reset == OffsetReset::kEarliest
                   ? endpoint_->log_start_offset(tp.topic, tp.partition)
                   : endpoint_->end_offset(tp.topic, tp.partition);
  if (!start.ok()) return std::nullopt;
  return start.value();
}

void Consumer::apply_assignment(const GroupAssignment& assigned) {
  generation_ = assigned.generation;
  // Preserve positions for partitions we keep; (re)initialize new ones.
  std::map<TopicPartition, std::uint64_t> kept;
  for (const auto& tp : assigned.partitions) {
    if (auto it = positions_.find(tp); it != positions_.end()) {
      kept.emplace(*it);
    } else if (auto start = initial_position(tp)) {
      kept.emplace(tp, *start);
    }
  }
  assignment_ = assigned.partitions;
  positions_ = std::move(kept);
  next_partition_index_ = 0;
  stats_.rebalances += 1;
}

void Consumer::maybe_rebalance() {
  if (!subscribed_) return;
  // Liveness signal; also triggers eviction of dead group members.
  (void)endpoint_->heartbeat(group_, id_);
  auto assigned = endpoint_->group_assignment(group_, id_);
  if (!assigned.ok() && assigned.status().code() == StatusCode::kNotFound) {
    // Evicted (session expired, or a cluster's offsets leader moved and
    // the group re-forms there): rejoin, as Kafka consumers do.
    PE_LOG_WARN("consumer " << id_ << " evicted from group " << group_
                            << "; rejoining");
    assigned = endpoint_->join_group(group_, id_, subscribed_topics_);
    generation_ = 0;  // adopt whatever the rejoin hands out
  }
  if (assigned.ok() && assigned.value().generation != generation_) {
    apply_assignment(assigned.value());
  }
}

std::vector<ConsumedRecord> Consumer::poll(Duration timeout) {
  // At-least-once auto-commit (Kafka semantics): what the PREVIOUS poll
  // delivered is committed now — the application has had the records in
  // hand since then, so a crash between polls redelivers instead of
  // silently dropping. Runs before the heartbeat/rebalance so positions
  // are persisted before any partition could move away. A failed commit
  // (a cluster's offsets leader moving) is retried by the next poll.
  if (config_.auto_commit && uncommitted_delivery_) {
    uncommitted_delivery_ = !commit().ok();
  }
  maybe_rebalance();
  stats_.polls += 1;
  std::vector<ConsumedRecord> out;
  // An unassigned member parks nothing, so it waits out the timeout.
  const auto deadline = Clock::deadline_in(timeout);
  // fetch_max_bytes bounds the whole poll, not each partition: one shared
  // budget decrements as partitions fill it. (Per Kafka fetch semantics a
  // partition always delivers at least one record, so the response can
  // overshoot by at most one record per partition.)
  std::uint64_t byte_budget = config_.fetch_max_bytes;
  while (true) {
    // Read before the sweep, so the wait below misses no later change.
    const std::uint64_t seen = waiter_->epoch();
    bool repositioned = false;
    // One round-robin sweep over assigned partitions, non-blocking.
    for (std::size_t i = 0; i < assignment_.size(); ++i) {
      if (byte_budget == 0) break;
      const auto& tp =
          assignment_[(next_partition_index_ + i) % assignment_.size()];
      auto pos = positions_.find(tp);
      if (pos == positions_.end()) {
        auto start = initial_position(tp);
        if (!start) continue;  // no leader right now; a later sweep
        pos = positions_.emplace(tp, *start).first;
      }
      FetchSpec spec;
      spec.offset = pos->second;
      spec.max_records = config_.max_poll_records - out.size();
      spec.max_bytes = byte_budget;
      spec.waiter = waiter_;
      auto fetched = endpoint_->fetch(tp.topic, tp.partition, spec);
      if (!fetched.ok()) {
        const Status& failure = fetched.status();
        if (failure.code() == StatusCode::kOutOfRange) {
          // Retained away or stale position: reset it by offset_reset. A
          // re-resolve through initial_position would return the same
          // out-of-range committed offset forever.
          if (auto reset = reset_position(tp)) {
            pos->second = *reset;
            repositioned = true;
          } else {
            positions_.erase(pos);
          }
        } else if (!failure.is_transient()) {
          // Transient failures (a leader moving) clear by a later sweep.
          PE_LOG_WARN("poll fetch failed: " << failure.to_string());
        }
        continue;
      }
      auto& records = fetched.value();
      if (records.empty()) continue;
      std::uint64_t bytes = 0;
      for (const auto& r : records) bytes += r.record.wire_size();
      if (fabric_) {
        // Charge the fetch response to the endpoint->consumer link.
        auto transfer = fabric_->transfer(endpoint_->site(), site_, bytes);
        if (!transfer.ok()) {
          PE_LOG_WARN(
              "fetch transfer failed: " << transfer.status().to_string());
          continue;
        }
      }
      pos->second = records.back().offset + 1;
      stats_.records_received += records.size();
      stats_.bytes_received += bytes;
      byte_budget -= std::min(byte_budget, bytes);
      // Move the fetched records out: payloads are shared views, so the
      // whole handover is pointer-sized per record.
      out.insert(out.end(), std::make_move_iterator(records.begin()),
                 std::make_move_iterator(records.end()));
      uncommitted_delivery_ = true;
      if (out.size() >= config_.max_poll_records) break;
    }
    const std::size_t n = std::max<std::size_t>(1, assignment_.size());
    next_partition_index_ = (next_partition_index_ + 1) % n;

    if (!out.empty() || Clock::now() >= deadline) break;
    // Nothing anywhere: every partition at its end parked the waiter, so
    // a record on any of them ends the wait. A reset position reads now.
    if (!repositioned) waiter_->wait(seen, deadline);
  }

  return out;
}

std::vector<TopicPartition> Consumer::assignment() const {
  return assignment_;
}

Result<std::uint64_t> Consumer::position(const TopicPartition& tp) const {
  auto it = positions_.find(tp);
  if (it != positions_.end()) return it->second;
  if (is_assigned(tp)) return Status::Unavailable("position not resolved");
  return Status::NotFound("partition not assigned");
}

Status Consumer::seek(const TopicPartition& tp, std::uint64_t offset) {
  if (!is_assigned(tp)) return Status::NotFound("partition not assigned");
  positions_[tp] = offset;
  return Status::Ok();
}

Status Consumer::commit() {
  for (const auto& position : positions_) {
    auto s = retry_transient(
        [&] {
          return endpoint_->commit_offset(group_, position.first,
                                          position.second);
        },
        nullptr, stop_.get());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void Consumer::close() {
  if (closed_) return;
  closed_ = true;
  // A clean shutdown commits the final delivered positions (Kafka's
  // consumer.close() does the same when auto-commit is enabled).
  if (config_.auto_commit && uncommitted_delivery_) {
    (void)commit();
    uncommitted_delivery_ = false;
  }
  if (subscribed_) {
    (void)endpoint_->leave_group(group_, id_);
    subscribed_ = false;
  }
}

void Consumer::crash() {
  closed_ = true;
  subscribed_ = false;
  uncommitted_delivery_ = false;
}

ConsumerStats Consumer::stats() const { return stats_; }

}  // namespace pe::broker
