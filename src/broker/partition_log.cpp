#include "broker/partition_log.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace pe::broker {

PartitionLog::PartitionLog(RetentionPolicy retention)
    : retention_(retention) {}

PartitionLog::~PartitionLog() {
  // The broker-wide hot-bytes counter outlives individual logs (topics
  // get deleted, crash_and_recover rebuilds the registry): hand back this
  // log's contribution so the aggregate stays exact.
  MutexLock lock(mutex_);
  if (hot_counter_ && bytes_ > 0) {
    hot_counter_->fetch_sub(static_cast<std::int64_t>(bytes_),
                            std::memory_order_relaxed);
  }
}

void PartitionLog::set_hot_bytes_counter(
    std::shared_ptr<std::atomic<std::int64_t>> c) {
  MutexLock lock(mutex_);
  if (hot_counter_ && bytes_ > 0) {
    hot_counter_->fetch_sub(static_cast<std::int64_t>(bytes_),
                            std::memory_order_relaxed);
  }
  hot_counter_ = std::move(c);
  if (hot_counter_ && bytes_ > 0) {
    hot_counter_->fetch_add(static_cast<std::int64_t>(bytes_),
                            std::memory_order_relaxed);
  }
}

void PartitionLog::add_hot_bytes_locked(std::int64_t delta) {
  bytes_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(bytes_) + delta);
  if (hot_counter_) {
    hot_counter_->fetch_add(delta, std::memory_order_relaxed);
  }
}

PartitionLog::PartitionLog(RetentionPolicy retention, std::string durable_dir,
                           storage::StorageConfig storage)
    : retention_(retention) {
  auto opened = storage::LogDir::open(std::move(durable_dir), storage,
                                      &recovery_report_);
  if (!opened.ok()) {
    // A partition that cannot open its durable tier still works as an
    // in-memory log — matching how the broker treats a lost disk — but
    // the failure is loud.
    PE_LOG_ERROR("durable partition log unavailable, running in-memory: "
                 << opened.status().to_string());
    return;
  }
  log_dir_ = std::move(opened).value();
  MutexLock lock(mutex_);
  next_offset_ = log_dir_->end_offset();
  publish_end_locked();
}

namespace {

/// A durable-append failure fails the produce with a *transient* status:
/// the record was not acked, the producer's retry policy may try again
/// (the disk hiccup may pass, or a cluster layer may re-route to a new
/// leader). Already-transient codes pass through unchanged.
Status as_produce_error(const Status& s) {
  tel::MetricsRegistry::global().counter("storage.append_errors").add();
  if (s.is_transient()) return s;
  return Status::Unavailable("durable append failed: " + s.to_string());
}

/// How the write body reads the (record, broker timestamp) pair of one
/// element: a produced record takes the batch's stamp, a replicated one
/// keeps the leader's.
Record& record_of(Record& r) { return r; }
Record& record_of(ConsumedRecord& cr) { return cr.record; }
std::uint64_t stamp_of(const Record&, std::uint64_t now_ns) { return now_ns; }
std::uint64_t stamp_of(const ConsumedRecord& cr, std::uint64_t) {
  return cr.broker_timestamp_ns;
}

}  // namespace

template <typename Elem>
Result<std::uint64_t> PartitionLog::append_entries(
    std::vector<Elem>& records) {
  std::uint64_t first_offset;
  std::size_t accepted = records.size();
  Status durable = Status::Ok();
  ParkedWaiters woken;
  {
    MutexLock lock(mutex_);
    first_offset = next_offset_;
    const std::uint64_t now_ns = Clock::now_ns();
    if (log_dir_) {
      // Write-through first, in one batched storage call: an offset is
      // only consumed once the durable tier accepted its record.
      std::vector<storage::TimestampedRecord> batch;
      batch.reserve(records.size());
      for (Elem& e : records) {
        batch.push_back({&record_of(e), stamp_of(e, now_ns)});
      }
      if (auto appended = log_dir_->append_batch(batch); !appended.ok()) {
        durable = appended.status();
        // The durably-appended prefix (possibly empty) stays: mirror it
        // into the hot window so the deque remains dense and tier-
        // consistent, but fail the call — none of it is acked.
        accepted = static_cast<std::size_t>(log_dir_->end_offset() -
                                            next_offset_);
        PE_LOG_WARN("durable append at offset "
                    << next_offset_ << " failed after " << accepted << "/"
                    << records.size() << " records: " << durable.to_string());
      }
    }
    for (std::size_t i = 0; i < accepted; ++i) {
      Record& record = record_of(records[i]);
      add_hot_bytes_locked(static_cast<std::int64_t>(record.wire_size()));
      entries_.push_back(Entry{next_offset_++, stamp_of(records[i], now_ns),
                               std::move(record)});
    }
    publish_end_locked();
    enforce_retention_locked();
    if (accepted > 0 && !parked_.empty()) woken.swap(parked_);
  }
  notify_all(woken);
  if (!durable.ok()) return as_produce_error(durable);
  return first_offset;
}

Result<std::uint64_t> PartitionLog::append(Record record) {
  std::vector<Record> one;
  one.push_back(std::move(record));
  return append_batch(std::move(one));
}

Result<std::uint64_t> PartitionLog::append_batch(std::vector<Record> records) {
  return append_entries(records);
}

Result<std::uint64_t> PartitionLog::append_replicated(
    std::vector<ConsumedRecord> records) {
  return append_entries(records);
}

Status PartitionLog::truncate_suffix(std::uint64_t offset) {
  MutexLock lock(mutex_);
  if (offset >= next_offset_) return Status::Ok();
  const std::uint64_t start =
      log_dir_ ? log_dir_->start_offset()
               : (entries_.empty() ? next_offset_ : entries_.front().offset);
  if (offset < start) {
    return Status::OutOfRange("truncate offset " + std::to_string(offset) +
                              " below log start " + std::to_string(start));
  }
  while (!entries_.empty() && entries_.back().offset >= offset) {
    add_hot_bytes_locked(
        -static_cast<std::int64_t>(entries_.back().record.wire_size()));
    entries_.pop_back();
  }
  next_offset_ = offset;
  publish_end_locked();
  if (log_dir_) {
    if (auto s = log_dir_->truncate_suffix(offset); !s.ok()) return s;
  }
  return Status::Ok();
}

Status PartitionLog::sync() {
  if (!log_dir_) return Status::Ok();
  return log_dir_->sync();
}

void PartitionLog::simulate_power_loss(double keep_fraction) {
  if (log_dir_) log_dir_->simulate_power_loss(keep_fraction);
}

Result<std::vector<ConsumedRecord>> PartitionLog::fetch(
    const FetchSpec& spec) const {
  MutexLock lock(mutex_);

  if (spec.offset > next_offset_) {
    return Status::OutOfRange("fetch offset " + std::to_string(spec.offset) +
                              " beyond end offset " +
                              std::to_string(next_offset_));
  }
  if (spec.offset == next_offset_) {
    // Parked under the lock the next append publishes under, so that
    // append cannot slip in unseen between this check and the park.
    park(parked_, spec.waiter);
    return std::vector<ConsumedRecord>{};
  }

  const std::uint64_t start =
      entries_.empty() ? next_offset_ : entries_.front().offset;
  if (spec.offset < start) {
    // Cold path: the hot window no longer holds this offset. With a
    // durable tier the records are still on disk (the durable log also
    // holds the hot window, so a cold fetch never has to stitch tiers) —
    // serve zero-copy views into the mmap'd segments.
    if (log_dir_) {
      return log_dir_->fetch(spec.offset, spec.max_records, spec.max_bytes);
    }
    return Status::OutOfRange("fetch offset " + std::to_string(spec.offset) +
                              " below log start " + std::to_string(start));
  }

  std::vector<ConsumedRecord> out;
  std::uint64_t bytes = 0;
  // Dense offsets => direct index from the deque front. Copying the record
  // is zero-copy for the payload (shared view); only the key string and
  // the fixed-size coordinates are duplicated per consumer.
  const std::size_t first = spec.offset - start;
  out.reserve(std::min(entries_.size() - first, spec.max_records));
  for (std::size_t i = first; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (out.size() >= spec.max_records) break;
    if (!out.empty() && bytes + e.record.wire_size() > spec.max_bytes) break;
    ConsumedRecord cr;
    cr.offset = e.offset;
    cr.broker_timestamp_ns = e.broker_timestamp_ns;
    cr.record = e.record;
    bytes += e.record.wire_size();
    out.push_back(std::move(cr));
  }
  return out;
}

std::uint64_t PartitionLog::log_start_offset() const {
  MutexLock lock(mutex_);
  if (log_dir_) return log_dir_->start_offset();
  return entries_.empty() ? next_offset_ : entries_.front().offset;
}

std::uint64_t PartitionLog::record_count() const {
  MutexLock lock(mutex_);
  if (log_dir_) return log_dir_->record_count();
  return entries_.size();
}

std::uint64_t PartitionLog::byte_size() const {
  MutexLock lock(mutex_);
  if (log_dir_) return log_dir_->byte_size();
  return bytes_;
}

std::uint64_t PartitionLog::hot_window_bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void PartitionLog::enforce_retention() {
  MutexLock lock(mutex_);
  enforce_retention_locked();
}

void PartitionLog::enforce_retention_locked() {
  if (retention_.max_records > 0) {
    while (entries_.size() > retention_.max_records) {
      add_hot_bytes_locked(
          -static_cast<std::int64_t>(entries_.front().record.wire_size()));
      entries_.pop_front();
    }
  }
  if (retention_.max_bytes > 0) {
    while (entries_.size() > 1 && bytes_ > retention_.max_bytes) {
      add_hot_bytes_locked(
          -static_cast<std::int64_t>(entries_.front().record.wire_size()));
      entries_.pop_front();
    }
  }
  std::uint64_t cutoff_ns = 0;
  if (retention_.max_age > Duration::zero()) {
    // Saturating subtraction: when the clock epoch is younger than
    // max_age, an unsigned wrap would put the cutoff in the far future
    // and age-evict the whole log down to one entry.
    const std::uint64_t now_ns = Clock::now_ns();
    const auto age_ns = static_cast<std::uint64_t>(retention_.max_age.count());
    cutoff_ns = now_ns > age_ns ? now_ns - age_ns : 0;
    while (entries_.size() > 1 &&
           entries_.front().broker_timestamp_ns < cutoff_ns) {
      add_hot_bytes_locked(
          -static_cast<std::int64_t>(entries_.front().record.wire_size()));
      entries_.pop_front();
    }
  }
  // Hot-window cache bound (durable logs only): trim the deque without
  // touching the durable tier — the records stay on disk and cold fetches
  // serve them, so this frees memory without losing data.
  if (log_dir_ && retention_.hot_max_bytes > 0) {
    while (entries_.size() > 1 && bytes_ > retention_.hot_max_bytes) {
      add_hot_bytes_locked(
          -static_cast<std::int64_t>(entries_.front().record.wire_size()));
      entries_.pop_front();
    }
  }
  if (log_dir_) {
    // The durable tier retains at whole-segment granularity and only
    // drops a segment once the rest of the log still satisfies the
    // limits, so it always holds at least as much as the hot window.
    log_dir_->apply_retention(retention_.max_records, retention_.max_bytes,
                              cutoff_ns);
  }
}

}  // namespace pe::broker
