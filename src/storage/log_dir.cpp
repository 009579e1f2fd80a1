#include "storage/log_dir.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "telemetry/metrics.h"

namespace pe::storage {

namespace fs = std::filesystem;

namespace {

/// How many consecutive covering fsyncs one group-commit leader runs for
/// bytes that are not its own before handing leadership to a waiter.
constexpr int kLeaderChoreBudget = 8;

/// append_batch keeps its encode buffer between calls only up to this
/// capacity; a larger one (a replication catch-up batch) is freed.
constexpr std::size_t kEncodeBufKeepBytes = 1u << 20;

// Registry handles, resolved once: rolls and retention run on the produce
// path of a log at its retention limit.
tel::Counter& segments_created() {
  static tel::Counter& c =
      tel::MetricsRegistry::global().counter("storage.segments_created");
  return c;
}

}  // namespace

LogDir::LogDir(std::string dir, StorageConfig config)
    : dir_(std::move(dir)),
      slot_path_((fs::path(dir_) / kRecycleSlotFileName).string()),
      config_(config) {}

Result<std::unique_ptr<LogDir>> LogDir::open(std::string dir,
                                             StorageConfig config,
                                             RecoveryReport* report) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create_directories '" + dir +
                            "': " + ec.message());
  }
  std::unique_ptr<LogDir> log(new LogDir(std::move(dir), config));
  RecoveryReport local;
  {
    MutexLock lock(log->mutex_);
    if (auto s = log->recover_locked(&local); !s.ok()) return s;
  }
  if (report != nullptr) *report = local;
  return log;
}

LogDir::~LogDir() {
  UniqueLock lock(mutex_);
  wait_sync_idle_locked(lock);
  if (!closed_ && writer_) writer_->close();  // clean shutdown syncs
  writer_.reset();
}

Status LogDir::recover_locked(RecoveryReport* report) {
  const auto t0 = Clock::now();
  auto& metrics = tel::MetricsRegistry::global();

  // Collect segment files in base-offset order.
  std::vector<std::pair<std::uint64_t, std::string>> files;
  bool leftover_slot = false;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t base = 0;
    const std::string name = entry.path().filename().string();
    if (parse_segment_file_name(name, &base)) {
      files.emplace_back(base, entry.path().string());
    }
    leftover_slot = leftover_slot || name == kRecycleSlotFileName;
  }
  if (ec) {
    return Status::Internal("list '" + dir_ + "': " + ec.message());
  }
  // A recycle slot left by the last run holds only retained-away records.
  if (leftover_slot) fs::remove(slot_path_, ec);
  if (ec) {
    return Status::Internal("remove recycle slot '" + slot_path_ +
                            "': " + ec.message());
  }
  std::sort(files.begin(), files.end());

  segments_.clear();
  bool tail_is_torn = false;
  for (const auto& [base, path] : files) {
    if (tail_is_torn ||
        (!segments_.empty() && segments_.back()->end_offset() != base)) {
      // Unreachable past a torn/corrupt segment or an offset gap: these
      // records can no longer be served contiguously. Delete them — the
      // durability contract only covers the contiguous synced prefix.
      PE_LOG_WARN("storage recovery: deleting discontiguous segment "
                  << path);
      std::error_code rm_ec;
      fs::remove(path, rm_ec);
      if (rm_ec) {
        return Status::Internal("recovery: remove discontiguous segment '" +
                                path + "': " + rm_ec.message());
      }
      report->segments_deleted += 1;
      continue;
    }
    auto segment = std::make_unique<Segment>(path, base);
    auto torn = segment->scan();
    if (!torn.ok()) return torn.status();
    report->segments_scanned += 1;
    report->records_recovered += segment->record_count();
    report->bytes_recovered += segment->bytes();
    if (torn.value() > 0) {
      report->torn_bytes_truncated += torn.value();
      metrics.counter("storage.torn_bytes_truncated").add(torn.value());
      tail_is_torn = true;  // anything after this segment is unreachable
    }
    // Empty (fully-torn or rolled-but-never-written) segments stay in the
    // list for now; only *trailing* empties are recycled, below. Deleting
    // one mid-scan would silently splice the list and let a later segment
    // pass the contiguity check it should fail.
    segments_.push_back(std::move(segment));
  }

  // Recycle empty segments only from the tail: a crash can leave a
  // rolled-but-never-appended (or fully-torn) trailing file, and the next
  // roll recreates it at the same base offset. At least one segment
  // always survives to carry the offset sequence.
  while (segments_.size() > 1 && segments_.back()->record_count() == 0) {
    std::error_code rm_ec;
    fs::remove(segments_.back()->path(), rm_ec);
    if (rm_ec) {
      // Not fatal: keep it as the active segment instead — the writer
      // open below truncates the file to its zero valid bytes.
      PE_LOG_WARN("storage recovery: cannot recycle empty tail segment '"
                  << segments_.back()->path() << "': " << rm_ec.message()
                  << "; keeping it as the active segment");
      break;
    }
    report->segments_deleted += 1;
    segments_.pop_back();
  }

  if (segments_.empty()) {
    auto segment = std::make_unique<Segment>(
        (fs::path(dir_) / segment_file_name(0)).string(), 0);
    segments_.push_back(std::move(segment));
    segments_created().add();
  }

  // The last surviving segment becomes the active one; its writer's open
  // truncates the torn tail off the file and fsyncs the valid prefix.
  auto writer = SegmentWriter::open(segments_.back().get());
  if (!writer.ok()) return writer.status();
  writer_ = std::move(writer).value();

  report->start_offset = segments_.front()->base_offset();
  report->next_offset = segments_.back()->end_offset();
  report->elapsed = std::chrono::duration_cast<Duration>(Clock::now() - t0);
  metrics.histogram("storage.recovery_ms")
      .record(std::chrono::duration_cast<
                  std::chrono::duration<double, std::milli>>(report->elapsed)
                  .count());
  return Status::Ok();
}

std::uint64_t LogDir::end_offset_locked() const {
  return segments_.back()->end_offset();
}

void LogDir::wait_sync_idle_locked(UniqueLock& lock) {
  sync_cv_.wait(lock, [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
    return !sync_in_flight_;
  });
}

Status LogDir::group_sync_locked(UniqueLock& lock) {
  // What this caller needs covered: everything appended to the active
  // segment so far. Identified by base offset, not pointer — base offsets
  // are monotone and never reused, so the check survives rolls, retention
  // and truncation without dangling.
  const std::uint64_t base = segments_.back()->base_offset();
  const std::uint64_t target = segments_.back()->bytes();
  for (;;) {
    if (closed_) {
      return Status::FailedPrecondition("log dir closed (crashed)");
    }
    if (segments_.back()->base_offset() != base) {
      // The log rolled past our segment while we waited. Rolling seals
      // (syncs) the outgoing segment, so our bytes are already durable.
      return Status::Ok();
    }
    if (writer_->synced_bytes() >= target) return Status::Ok();
    if (!sync_in_flight_) break;
    // A leader is fsyncing right now with the mutex released; wait for
    // its result — it may already cover our bytes. Wake on ANY progress
    // (coverage, roll, close), not just on the sync slot going idle: a
    // covered waiter that kept sleeping until idle would snooze through
    // the next leader's whole fsync and never contribute its next record
    // to that leader's group.
    sync_cv_.wait(lock, [&]() PE_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || segments_.back()->base_offset() != base ||
             writer_->synced_bytes() >= target || !sync_in_flight_;
    });
  }
  // Become the sync leader: snapshot what the fsync will cover, run it
  // with the mutex released (concurrent appenders keep writing and park
  // behind sync_in_flight_), publish the marks, wake the covered
  // waiters — then DRAIN: if new bytes landed while the fsync ran, loop
  // and cover them too instead of handing leadership off. A handoff per
  // group costs a cv wake + mutex convoy + snapshot latency per fsync;
  // the drain loop keeps the disk continuously busy with zero handoffs,
  // which is where the group-commit throughput actually comes from. The
  // chore budget bounds how long one caller does chores for everyone
  // else's bytes before a parked waiter takes over.
  sync_in_flight_ = true;
  Status my_sync = Status::Ok();
  for (int chores = 0;; ++chores) {
    // Group window: one scheduling quantum with the lock dropped (flag
    // already set, so the writer cannot be replaced) lets appenders that
    // are mid-wakeup land their bytes in the buffer and ride THIS fsync
    // instead of the next one. Uncontended, the yield is ~a microsecond.
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
    SegmentWriter* writer = writer_.get();
    const SegmentWriter::SyncMark mark = writer->begin_sync();
    lock.unlock();
    const Status synced = writer->sync_file_only();
    lock.lock();
    // The fsync that covers THIS caller's bytes is the first one; chore
    // rounds only sync bytes of waiters who will re-check on wake and
    // re-lead (re-reporting any persistent error to their own callers).
    if (chores == 0) my_sync = synced;
    if (!synced.ok()) break;
    writer->note_synced(mark);
    sync_cv_.notify_all();  // covered waiters return immediately
    if (closed_) break;
    if (segments_.back()->bytes() <= writer->synced_bytes()) break;
    if (chores + 1 >= kLeaderChoreBudget) break;
  }
  sync_in_flight_ = false;
  sync_cv_.notify_all();
  return my_sync;
}

Status LogDir::policy_sync_locked(UniqueLock& lock) {
  switch (config_.flush_policy) {
    case FlushPolicy::kEverySync:
      return group_sync_locked(lock);
    case FlushPolicy::kEveryNRecords:
      if (writer_->dirty_records() >= config_.flush_every_n) {
        return group_sync_locked(lock);
      }
      return Status::Ok();
    case FlushPolicy::kNever:
      return Status::Ok();
  }
  return Status::Ok();
}

Status LogDir::roll_locked(UniqueLock& lock) {
  const std::uint64_t active_base = segments_.back()->base_offset();
  // The writer is about to be replaced: no group sync may be fsyncing
  // through it. Waiting can release the lock, so re-check the world.
  wait_sync_idle_locked(lock);
  if (closed_) {
    return Status::FailedPrecondition("log dir closed (crashed)");
  }
  if (segments_.back()->base_offset() != active_base) {
    return Status::Ok();  // another appender rolled while we waited
  }
  // Seal the active segment: everything in it becomes durable at the
  // roll, so a sealed segment is never part of the unsynced tail.
  if (auto s = writer_->seal(); !s.ok()) return s;
  const std::uint64_t base = end_offset_locked();
  const std::string path = (fs::path(dir_) / segment_file_name(base)).string();
  auto segment = std::make_unique<Segment>(path, base);
  bool recycled = false;
  if (slot_full_) {
    slot_full_ = false;
    std::error_code ec;
    fs::rename(slot_path_, path, ec);
    if (ec) {
      PE_LOG_WARN("roll: rename recycle slot to '" << path
                                                   << "': " << ec.message());
      fs::remove(slot_path_, ec);
    } else {
      recycled = true;
    }
  }
  auto writer = recycled ? SegmentWriter::open_recycled(segment.get())
                         : SegmentWriter::open(segment.get());
  if (!writer.ok()) return writer.status();
  // The new name must be durable before any record under it is acked: a
  // crash must not leave acked records in a file that recovery finds
  // under the slot's name (and deletes) or under no name at all.
  if (auto s = sync_dir(); !s.ok()) return s;
  segments_.push_back(std::move(segment));
  writer_ = std::move(writer).value();
  segments_created().add();
  if (recycled) {
    static tel::Counter& segments_recycled =
        tel::MetricsRegistry::global().counter("storage.segments_recycled");
    segments_recycled.add();
  }
  return Status::Ok();
}

Status LogDir::sync_dir() const {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open dir '" + dir_ +
                            "': " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync dir '" + dir_ +
                            "': " + std::strerror(err));
  }
  return Status::Ok();
}

Result<std::uint64_t> LogDir::append_batch(
    const std::vector<TimestampedRecord>& records) {
  UniqueLock lock(mutex_);
  if (closed_) return Status::FailedPrecondition("log dir closed (crashed)");
  if (inject_append_failures_ > 0) {
    --inject_append_failures_;
    return Status::Unavailable("injected append failure");
  }
  if (records.empty()) return end_offset_locked();

  std::uint64_t batch_bytes = kBatchHeaderBytes;
  for (const TimestampedRecord& tr : records) {
    batch_bytes += batch_record_bytes(*tr.record);
  }
  // Each segment chunk (usually the whole call) is encoded as one batch
  // into encode_buf_ and hits the file in a single write(). The buffer is
  // used only between lock-held points: roll_locked may release the
  // mutex, but never while a batch is half encoded.
  encode_buf_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(batch_bytes, config_.segment_max_bytes)));

  std::uint64_t first = 0;
  Status failed = Status::Ok();
  auto fits = [&](std::uint64_t bytes) PE_NO_THREAD_SAFETY_ANALYSIS {
    return segments_.back()->bytes() + bytes <= config_.segment_max_bytes;
  };
  for (std::size_t i = 0; i < records.size() && failed.ok();) {
    // Chunk: the run of records that fits the active segment as one
    // batch. A record that does not fit a non-empty segment rolls it
    // first (then re-check: a concurrent appender may have rolled); an
    // empty segment takes even an oversized one.
    std::uint64_t chunk =
        kBatchHeaderBytes + batch_record_bytes(*records[i].record);
    if (segments_.back()->record_count() > 0 && !fits(chunk)) {
      failed = roll_locked(lock);
      continue;
    }
    encode_buf_.clear();
    if (i == 0) first = end_offset_locked();
    BatchBuilder batch(encode_buf_, end_offset_locked());
    do {
      batch.add(*records[i].record, records[i].broker_timestamp_ns);
    } while (++i < records.size() &&
             fits(chunk += batch_record_bytes(*records[i].record)));
    failed = writer_->append_encoded(encode_buf_, batch.finish());
  }
  if (encode_buf_.capacity() > kEncodeBufKeepBytes) {
    encode_buf_ = Bytes();  // a catch-up burst must not pin its peak
  }
  if (!failed.ok()) return failed;
  // At most one policy sync covers the whole batch (rolls mid-batch seal
  // their outgoing segment with their own sync, as every roll does).
  if (auto s = policy_sync_locked(lock); !s.ok()) return s;
  return first;
}

Status LogDir::sync() {
  UniqueLock lock(mutex_);
  if (closed_) return Status::FailedPrecondition("log dir closed (crashed)");
  return group_sync_locked(lock);
}

void LogDir::inject_append_failures(std::uint64_t n) {
  MutexLock lock(mutex_);
  inject_append_failures_ = n;
}

std::size_t LogDir::segment_index_locked(std::uint64_t offset) const {
  // Last segment whose base_offset <= offset (precondition: offset >=
  // segments_.front()->base_offset()).
  const auto after = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](std::uint64_t o, const auto& s) { return o < s->base_offset(); });
  return static_cast<std::size_t>(after - segments_.begin()) - 1;
}

Result<std::vector<broker::ConsumedRecord>> LogDir::fetch(
    std::uint64_t offset, std::size_t max_records,
    std::uint64_t max_bytes) const {
  MutexLock lock(mutex_);
  const std::uint64_t start = segments_.front()->base_offset();
  const std::uint64_t end = end_offset_locked();
  if (offset < start) {
    return Status::OutOfRange("fetch offset " + std::to_string(offset) +
                              " below log start " + std::to_string(start));
  }
  if (offset > end) {
    return Status::OutOfRange("fetch offset " + std::to_string(offset) +
                              " beyond end offset " + std::to_string(end));
  }
  std::vector<broker::ConsumedRecord> out;
  if (offset == end) return out;

  std::uint64_t bytes = 0;
  std::uint64_t at = offset;
  for (std::size_t seg_idx = segment_index_locked(offset);
       at < end && out.size() < max_records; ++seg_idx) {
    const Segment& segment = *segments_[seg_idx];
    auto pos = segment.position_of(at);
    if (!pos.ok()) return pos.status();
    std::uint64_t p = pos.value();
    while (at < segment.end_offset() && out.size() < max_records) {
      BatchReader batch;
      if (auto s = segment.read_batch(p, &batch); !s.ok()) return s;
      broker::ConsumedRecord cr;
      while (out.size() < max_records && batch.next(&cr)) {
        if (cr.offset < at) continue;  // a fetch that starts mid-batch
        // The first record always ships, even when it alone exceeds the
        // byte budget — a single oversized record must not stall a
        // consumer forever.
        const std::uint64_t wire = cr.record.wire_size();
        if (!out.empty() && bytes + wire > max_bytes) return out;
        bytes += wire;
        at = cr.offset + 1;
        out.push_back(std::move(cr));
      }
      p += batch.header().bytes;
    }
    if (at == segment.end_offset() && seg_idx + 1 < segments_.size()) {
      // Walked off the end of a sealed segment: a reader that has moved
      // past it rarely comes back, so stop caching its mapping. The
      // records above still own the region; it unmaps when they drop.
      segment.release_mapping();
    }
  }
  return out;
}

std::uint64_t LogDir::start_offset() const {
  MutexLock lock(mutex_);
  return segments_.front()->base_offset();
}

std::uint64_t LogDir::end_offset() const {
  MutexLock lock(mutex_);
  return end_offset_locked();
}

std::uint64_t LogDir::synced_offset() const {
  MutexLock lock(mutex_);
  return writer_ ? writer_->synced_offset() : end_offset_locked();
}

std::uint64_t LogDir::record_count() const {
  MutexLock lock(mutex_);
  return end_offset_locked() - segments_.front()->base_offset();
}

std::uint64_t LogDir::byte_size() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& s : segments_) total += s->bytes();
  return total;
}

std::size_t LogDir::segment_count() const {
  MutexLock lock(mutex_);
  return segments_.size();
}

std::vector<SegmentInfo> LogDir::segments() const {
  MutexLock lock(mutex_);
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = *segments_[i];
    SegmentInfo info;
    info.base_offset = s.base_offset();
    info.end_offset = s.end_offset();
    info.bytes = s.bytes();
    info.last_timestamp_ns = s.last_timestamp_ns();
    info.active = i + 1 == segments_.size();
    out.push_back(info);
  }
  return out;
}

Status LogDir::truncate_suffix(std::uint64_t offset) {
  UniqueLock lock(mutex_);
  if (closed_) return Status::FailedPrecondition("log dir closed (crashed)");
  if (offset >= end_offset_locked()) return Status::Ok();
  if (offset < segments_.front()->base_offset()) {
    return Status::OutOfRange(
        "truncate offset " + std::to_string(offset) + " below log start " +
        std::to_string(segments_.front()->base_offset()));
  }
  // The writer (and possibly files) are about to be mutated: wait out any
  // in-flight group fsync first, then re-validate — the wait can release
  // the lock.
  wait_sync_idle_locked(lock);
  if (closed_) return Status::FailedPrecondition("log dir closed (crashed)");
  if (offset >= end_offset_locked()) return Status::Ok();
  // The writer holds the active segment's fd; close it before unlinking
  // or resizing files (a fresh writer reopens the new tail below). From
  // here until that reopen the log has no writer: any early error return
  // must close the LogDir, or the next append/sync would dereference a
  // null writer_.
  if (writer_) writer_->close();
  writer_.reset();
  // (analysis can't follow the lambda; mutex_ is held for the whole call)
  auto fail_closed = [this](Status s) PE_NO_THREAD_SAFETY_ANALYSIS {
    closed_ = true;
    PE_LOG_ERROR("truncate_suffix failed mid-cut, closing log dir '"
                 << dir_ << "': " << s.to_string());
    return s;
  };

  std::error_code ec;
  while (!segments_.empty() && segments_.back()->base_offset() >= offset) {
    fs::remove(segments_.back()->path(), ec);
    segments_.pop_back();
  }
  if (segments_.empty()) {
    // Whole log discarded: recreate an empty active segment based at the
    // cut so the offset sequence resumes there (offsets are never reused).
    segments_.push_back(std::make_unique<Segment>(
        (fs::path(dir_) / segment_file_name(offset)).string(), offset));
  } else if (segments_.back()->end_offset() > offset) {
    // Boundary segment: the log must end exactly at `offset`, also when
    // the cut lands inside a batch.
    if (auto s = segments_.back()->cut_at(offset); !s.ok()) {
      return fail_closed(s);
    }
  }

  auto writer = SegmentWriter::open(segments_.back().get());
  if (!writer.ok()) return fail_closed(writer.status());
  writer_ = std::move(writer).value();
  tel::MetricsRegistry::global().counter("storage.suffix_truncations").add();
  return group_sync_locked(lock);  // the cut itself must survive a crash
}

std::size_t LogDir::apply_retention(std::uint64_t max_records,
                                    std::uint64_t max_bytes,
                                    std::uint64_t min_timestamp_ns) {
  MutexLock lock(mutex_);
  std::size_t dropped = 0;
  std::uint64_t total_records =
      end_offset_locked() - segments_.front()->base_offset();
  std::uint64_t total_bytes = 0;
  for (const auto& s : segments_) total_bytes += s->bytes();

  while (segments_.size() > 1) {
    const Segment& oldest = *segments_.front();
    const bool over_records =
        max_records > 0 &&
        total_records - oldest.record_count() >= max_records;
    const bool over_bytes =
        max_bytes > 0 && total_bytes - oldest.bytes() >= max_bytes;
    const bool expired = min_timestamp_ns > 0 &&
                         oldest.last_timestamp_ns() < min_timestamp_ns;
    if (!over_records && !over_bytes && !expired) break;
    total_records -= oldest.record_count();
    total_bytes -= oldest.bytes();
    // Recycle only a file no reader maps: an overwrite would change the
    // bytes under its views. Mapped views outlive an unlink instead.
    oldest.release_mapping();
    std::error_code ec;
    bool recycled = false;
    if (!slot_full_ && !oldest.has_live_mapping()) {
      fs::rename(oldest.path(), slot_path_, ec);
      recycled = slot_full_ = !ec;
    }
    if (!recycled) fs::remove(oldest.path(), ec);
    if (ec) {
      PE_LOG_WARN("retention: drop '" << oldest.path()
                                      << "': " << ec.message());
    }
    segments_.erase(segments_.begin());
    dropped += 1;
  }
  if (dropped > 0) {
    static tel::Counter& segments_dropped =
        tel::MetricsRegistry::global().counter("storage.segments_dropped");
    segments_dropped.add(dropped);
  }
  return dropped;
}

void LogDir::simulate_power_loss(double keep_fraction) {
  UniqueLock lock(mutex_);
  if (closed_) return;
  // Close FIRST, then drain: new appenders and parked group-sync waiters
  // observe closed_ and bail immediately, so only the one in-flight
  // leader (if any) is left to finish. Draining before closing would let
  // a steady stream of appenders start fresh syncs and starve the cut.
  closed_ = true;
  sync_cv_.notify_all();
  wait_sync_idle_locked(lock);
  if (writer_) {
    if (auto s = writer_->truncate_unsynced(keep_fraction); !s.ok()) {
      PE_LOG_WARN("simulate_power_loss: " << s.to_string());
    }
    writer_.reset();
  }
}

}  // namespace pe::storage
