// LogDir: a directory of commit-log segments — the durable backing store
// for broker partitions and the broker's metadata and offsets logs.
//
// open() scans the segments in offset order, verifies every record batch,
// truncates the torn tail (and deletes any segments made unreachable by a
// mid-log corruption), and resumes the offset sequence exactly where the
// crash left it. Appends go to the active (last) segment and roll to a
// new file at segment_max_bytes. Fetches below the caller's in-memory
// window are served from mmap-backed segments as zero-copy
// broker::Payload views. Retention removes whole segments, never parts
// of one.
//
// A log at its retention limit recycles: the segment retention drops is
// renamed into a one-file recycle slot instead of being unlinked (unless
// a reader still maps it), and the next roll renames it to the new
// segment's name and overwrites it from byte 0. The write lands on pages
// the file already holds rather than on freshly allocated ones; recovery
// tells the stale batches behind the valid bytes apart by their offsets.
//
// Sync is group-committed: under kEverySync, concurrent appenders do not
// serialize one fsync each — the first becomes the sync leader, releases
// the mutex around the fsync, and every appender whose bytes that fsync
// covered returns on it (Kafka-style group commit). Appenders keep
// writing while a sync is in flight and queue up behind the next one.
// A LogDir owns no thread: every fsync runs on the thread of an appender
// (per the flush policy), of a sync() caller, or of a roll or close.
//
// Every record reaches the file through append_batch(); append() is a
// one-record batch.
//
// Thread-safe. The internal mutex ranks below the broker's partition-log
// and coordinator locks so it can be taken while those are held.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/record.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/segment.h"
#include "storage/segment_writer.h"
#include "storage/storage_config.h"

namespace pe::storage {

/// One record of a batched append, with the broker timestamp it must be
/// stored with (replication preserves the leader's per-record stamps; a
/// fresh produce stamps the whole batch with one now). The pointed-at
/// record must stay alive for the duration of the append_batch call.
struct TimestampedRecord {
  const broker::Record* record = nullptr;
  std::uint64_t broker_timestamp_ns = 0;
};

/// File name of a log directory's recycle slot. Not a segment name, so
/// recovery never scans it; open() deletes a leftover one.
inline constexpr char kRecycleSlotFileName[] = "recycle.slot";

class LogDir {
 public:
  /// Opens (creating directories as needed) and recovers `dir`. `report`,
  /// when non-null, receives what the recovery scan found. Recovery time
  /// lands in the "storage.recovery_ms" histogram.
  static Result<std::unique_ptr<LogDir>> open(std::string dir,
                                              StorageConfig config,
                                              RecoveryReport* report =
                                                  nullptr);

  /// Clean shutdown: final sync + close (unless the log was crashed).
  ~LogDir();

  LogDir(const LogDir&) = delete;
  LogDir& operator=(const LogDir&) = delete;

  /// Appends one record at the next offset and returns that offset. The
  /// record is durable per the flush policy when this returns. Fails
  /// without consuming an offset: on error the log ends exactly where it
  /// ended before the call.
  Result<std::uint64_t> append(const broker::Record& record,
                               std::uint64_t broker_timestamp_ns) {
    return append_batch({{&record, broker_timestamp_ns}});
  }

  /// Appends a whole batch under one lock acquisition: each segment chunk
  /// is encoded as one record batch into a reused write buffer, written
  /// with one write() call and indexed once, and the whole call is
  /// covered by at most one policy sync. Returns the offset of
  /// the first appended record (end_offset() for an empty batch).
  ///
  /// On failure the durably-appended prefix of the batch stays in the log
  /// (end_offset() tells how far it got); the failing record and
  /// everything after it are not appended. A batch occupies a dense
  /// offset range when batches are externally serialized (the broker's
  /// partition lock does); direct concurrent appenders can interleave
  /// only at segment-roll boundaries.
  Result<std::uint64_t> append_batch(
      const std::vector<TimestampedRecord>& records);

  /// Forces an fsync of the active segment (group-committed: concurrent
  /// callers share one fsync when it covers them).
  Status sync();

  /// Records with offset >= `offset`, bounded by max_records/max_bytes
  /// (wire-size accounting; the first record always counts even when it
  /// alone exceeds max_bytes). Non-blocking: returns what is on disk.
  /// Payload values are zero-copy views into the segment mappings. Every
  /// batch read is verified whole; a corrupted one fails the fetch
  /// (INTERNAL) rather than yield a wrong record. A fetch that reads to
  /// the end of a sealed segment drops the segment's cached mapping; the
  /// returned records keep their region mapped.
  Result<std::vector<broker::ConsumedRecord>> fetch(
      std::uint64_t offset, std::size_t max_records,
      std::uint64_t max_bytes) const;

  std::uint64_t start_offset() const;
  std::uint64_t end_offset() const;
  /// Offsets below this are power-loss durable (fsynced).
  std::uint64_t synced_offset() const;
  std::uint64_t record_count() const;
  /// Valid on-disk bytes across all segments.
  std::uint64_t byte_size() const;
  std::size_t segment_count() const;
  std::vector<SegmentInfo> segments() const;

  /// Discards every record with offset >= `offset` (replication divergence
  /// repair: a deposed leader truncates its un-replicated suffix before
  /// catching up from the new leader). Whole segments past the cut are
  /// deleted, the boundary segment is cut exactly at `offset` (also inside
  /// a batch: Segment::cut_at), and the next append resumes there. No-op
  /// when `offset` is at/past the end; fails when `offset` lies below the
  /// log start (those records were already retained away).
  Status truncate_suffix(std::uint64_t offset);

  /// Kafka-style whole-segment retention. The oldest segment is dropped
  /// while (a) the log without it still holds >= max_records records /
  /// >= max_bytes bytes, or (b) every record in it is older than
  /// min_timestamp_ns. Zero disables a bound. The active segment is never
  /// dropped. A dropped segment fills the empty recycle slot when no
  /// reader maps it; otherwise it is unlinked. Returns how many segments
  /// were removed.
  std::size_t apply_retention(std::uint64_t max_records,
                              std::uint64_t max_bytes,
                              std::uint64_t min_timestamp_ns);

  /// Power-loss simulation: the synced prefix survives, `keep_fraction`
  /// of the unsynced tail bytes survive (possibly ending mid-batch), the
  /// rest is gone. The LogDir refuses all writes afterwards; reopen the
  /// directory to recover.
  void simulate_power_loss(double keep_fraction);

  /// Test hook: the next `n` append/append_batch calls fail with a
  /// transient UNAVAILABLE before writing any bytes — models a disk that
  /// rejects writes. A batched append consumes one injected failure for
  /// the whole call.
  void inject_append_failures(std::uint64_t n);

  const std::string& dir() const { return dir_; }
  const StorageConfig& config() const { return config_; }

 private:
  LogDir(std::string dir, StorageConfig config);

  Status recover_locked(RecoveryReport* report) PE_REQUIRES(mutex_);
  /// May release and re-acquire `lock` while waiting for an in-flight
  /// group sync to finish; re-checks the roll race and closed_ after.
  /// Takes the new segment's file from the recycle slot when it is full.
  Status roll_locked(UniqueLock& lock) PE_REQUIRES(mutex_);
  /// fsyncs the directory, making created and renamed entries durable.
  Status sync_dir() const;
  /// Group-commit sync: returns once a sync covering the active segment's
  /// current bytes has completed. The leader fsyncs with the mutex
  /// released; waiters piggyback. Releases and re-acquires `lock`.
  Status group_sync_locked(UniqueLock& lock) PE_REQUIRES(mutex_);
  /// The at-most-one policy sync for an append/append_batch call.
  Status policy_sync_locked(UniqueLock& lock) PE_REQUIRES(mutex_);
  /// Blocks until no group sync is in flight. Required before any writer_
  /// mutation (roll, truncate, power loss, close): the leader fsyncs
  /// through the writer with the mutex released.
  void wait_sync_idle_locked(UniqueLock& lock) PE_REQUIRES(mutex_);
  std::uint64_t end_offset_locked() const PE_REQUIRES(mutex_);
  /// Index of the segment containing `offset` (segments are sorted).
  std::size_t segment_index_locked(std::uint64_t offset) const
      PE_REQUIRES(mutex_);

  const std::string dir_;
  const std::string slot_path_;
  const StorageConfig config_;
  // Level 4 in the broker lock domain: legally acquired under the broker
  // registry (1), a partition log (2), or the group coordinator (3).
  mutable Mutex mutex_;
  /// Signaled when an in-flight group sync finishes (leader done).
  mutable CondVar sync_cv_;
  std::vector<std::unique_ptr<Segment>> segments_ PE_GUARDED_BY(mutex_);
  std::unique_ptr<SegmentWriter> writer_ PE_GUARDED_BY(mutex_);
  bool closed_ PE_GUARDED_BY(mutex_) = false;
  /// True while the recycle slot holds a retained-away segment's file.
  bool slot_full_ PE_GUARDED_BY(mutex_) = false;
  /// True while a sync leader is fsyncing with the mutex released.
  bool sync_in_flight_ PE_GUARDED_BY(mutex_) = false;
  std::uint64_t inject_append_failures_ PE_GUARDED_BY(mutex_) = 0;
  /// append_batch's encode buffer, reused across calls so its capacity
  /// never leaves the log.
  Bytes encode_buf_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::storage
