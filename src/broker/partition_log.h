// Append-only partition log: the core broker data structure.
//
// Semantics follow Kafka's partition model:
//  - append assigns dense, monotonically increasing offsets;
//  - fetch(offset) returns records at >= offset, bounded by count/bytes,
//    and never blocks: a fetch at the end parks the caller's Waiter,
//    which the next append notifies;
//  - retention trims the head; log_start_offset() moves forward, offsets
//    are never reused.
//
// Two storage tiers:
//  - in-memory deque: the hot tail, always present, serves most fetches;
//  - optional durable tier (storage::LogDir): every append also lands in
//    a CRC-checked segmented commit log on disk. Fetches below the hot
//    window are served from mmap'd segments as zero-copy payload views,
//    and the log survives a broker crash — reopening the same directory
//    resumes the offset sequence after truncating any torn tail.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/waiter.h"
#include "broker/record.h"
#include "storage/log_dir.h"
#include "storage/storage_config.h"

namespace pe::broker {

/// Retention policy for a partition log. Zero means unlimited.
struct RetentionPolicy {
  std::uint64_t max_records = 0;
  std::uint64_t max_bytes = 0;
  /// Records older than this (by broker timestamp) are trimmed on append.
  Duration max_age = Duration::zero();
  /// Cap on the in-memory hot window of a *durable* partition: the deque
  /// is trimmed down to this many bytes without touching the durable tier
  /// (trimmed records stay on disk and are served by the cold fetch
  /// path). Bounds broker memory independently of how much the log
  /// retains. Ignored for in-memory logs — trimming those would lose
  /// data, which is retention's job, not a cache bound's.
  std::uint64_t hot_max_bytes = 0;
};

/// Bounds for a fetch call.
struct FetchSpec {
  std::uint64_t offset = 0;
  std::size_t max_records = 512;
  std::uint64_t max_bytes = 8ull << 20;  // 8 MiB
  /// Optional: parked by a fetch that returns no records (DESIGN §10).
  std::shared_ptr<Waiter> waiter;
};

class PartitionLog {
 public:
  explicit PartitionLog(RetentionPolicy retention = {});
  ~PartitionLog();

  /// Durable partition log: `durable_dir` is recovered (or created) as a
  /// storage::LogDir and every append is written through to it. The
  /// in-memory deque resumes at the recovered end offset; records already
  /// on disk are served via the cold path.
  PartitionLog(RetentionPolicy retention, std::string durable_dir,
               storage::StorageConfig storage = {});

  bool durable() const { return log_dir_ != nullptr; }
  /// What recovery found when the durable tier was opened (zeros for
  /// in-memory logs and fresh directories).
  const storage::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }
  /// The durable tier (nullptr for in-memory logs). For tests/tools.
  storage::LogDir* log_dir() { return log_dir_.get(); }

  /// Forces the durable tier to fsync (no-op for in-memory logs). Offsets
  /// below the returned value are power-loss durable.
  Status sync();

  /// Power-loss simulation on the durable tier: the fsynced prefix
  /// survives, `keep_fraction` of unsynced tail bytes survive (possibly
  /// mid-batch), and the log stops accepting durable writes. Reopen the
  /// directory (new PartitionLog) to recover. No-op for in-memory logs.
  void simulate_power_loss(double keep_fraction);

  /// Discards every record with offset >= `offset` from both tiers and
  /// resumes the offset sequence at `offset` (replication divergence
  /// repair on a deposed leader). Offsets below the log start are
  /// OUT_OF_RANGE; at/past the end is a no-op.
  Status truncate_suffix(std::uint64_t offset);

  /// Appends a record, stamping the broker timestamp; returns its offset.
  /// A one-record append_batch(): a failed durable append FAILS the call
  /// (transient UNAVAILABLE) — the record is not acked, not added to the
  /// hot window, and next_offset_ does not advance past the durable end.
  /// The "storage.append_errors" counter tracks these.
  Result<std::uint64_t> append(Record record);

  /// Appends a batch in one durable-tier call (one lock acquisition, one
  /// batched write, at most one fsync); returns the offset of the first
  /// record. On a durable failure the call fails like append() — any
  /// durably-appended prefix of the batch stays in the log (so the hot
  /// window and the disk agree record for record), but no record of the
  /// batch is acked to the caller.
  Result<std::uint64_t> append_batch(std::vector<Record> records);

  /// Replication append: each record keeps the broker timestamp it was
  /// stamped with on the partition leader instead of being re-stamped
  /// here, so a given offset carries one timestamp cluster-wide (the
  /// records must be the leader's log in offset order — timestamps stay
  /// append-monotonic). Returns the offset of the first record. Durable
  /// failures propagate exactly like append_batch(), so a replica's
  /// end_offset() (which quorum acks poll) never runs ahead of what its
  /// disk accepted.
  Result<std::uint64_t> append_replicated(std::vector<ConsumedRecord> records);

  /// Returns records with offset >= spec.offset, without blocking. At the
  /// end of the log it returns none and parks spec.waiter (once per
  /// waiter, as a weak reference) for the next append. Fetching below
  /// log_start_offset fails with OUT_OF_RANGE (the data was retained away);
  /// fetching above end_offset fails with OUT_OF_RANGE too.
  Result<std::vector<ConsumedRecord>> fetch(const FetchSpec& spec) const;

  /// First offset still held (advances under retention).
  std::uint64_t log_start_offset() const;

  /// Offset of the first record with broker timestamp >= ts_ns, or
  /// end_offset() when everything retained is older (Kafka's
  /// offsetsForTimes semantics; timestamps are append-monotonic).
  std::uint64_t offset_for_timestamp(std::uint64_t ts_ns) const;

  /// Offset that the *next* appended record will receive. Lock-free: it
  /// never waits behind an append holding the log across the disk, and a
  /// fetch of any offset below the value it returns succeeds.
  std::uint64_t end_offset() const {
    return end_offset_.load(std::memory_order_acquire);
  }

  std::uint64_t record_count() const;
  std::uint64_t byte_size() const;

  /// Bytes currently held by the in-memory hot window (<= byte_size();
  /// for a durable log byte_size() reports the on-disk tier instead).
  std::uint64_t hot_window_bytes() const;

  /// Runs the retention + hot-window trim pass outside an append. The
  /// broker calls this when a produce hits the hot-window cap: trimming
  /// first may free enough memory to admit the batch without waiting for
  /// the next append on some other partition to trim it incidentally.
  void enforce_retention();

  /// Mirrors every hot-window byte-count change into `counter` (the
  /// broker's admission controller aggregates one counter across all
  /// partitions). Must be installed before the log serves traffic; the
  /// current hot bytes are transferred into the counter on installation
  /// and removed on destruction.
  void set_hot_bytes_counter(std::shared_ptr<std::atomic<std::int64_t>> c);

 private:
  struct Entry {
    std::uint64_t offset;
    std::uint64_t broker_timestamp_ns;
    Record record;
  };

  /// The one write body of append, append_batch and append_replicated:
  /// the durable write, the hot-window mirror of its durable prefix, the
  /// end publish, retention and the wake-up. Elem is Record (stamped with
  /// one now for the whole batch) or ConsumedRecord (keeps its stamp).
  /// Moves the accepted records out of `records`.
  template <typename Elem>
  Result<std::uint64_t> append_entries(std::vector<Elem>& records);
  void enforce_retention_locked() PE_REQUIRES(mutex_);
  /// Publishes next_offset_ to end_offset(); called wherever it changes.
  void publish_end_locked() PE_REQUIRES(mutex_) {
    end_offset_.store(next_offset_, std::memory_order_release);
  }
  /// Single mutation point for bytes_: keeps the shared hot-bytes counter
  /// exactly in sync with the deque.
  void add_hot_bytes_locked(std::int64_t delta) PE_REQUIRES(mutex_);

  const RetentionPolicy retention_;
  // Level 2 in the broker domain: legally acquired under the Broker
  // registry lock (level 1), never the other way around. The durable
  // tier's own mutex sits below this one (level 4), so writing through
  // while holding this lock is in order.
  mutable Mutex mutex_;
  /// Waiters of fetches that found the end; the next append takes them.
  mutable ParkedWaiters parked_ PE_GUARDED_BY(mutex_);
  std::deque<Entry> entries_ PE_GUARDED_BY(mutex_);
  std::uint64_t next_offset_ PE_GUARDED_BY(mutex_) = 0;
  /// next_offset_ as of the last publish_end_locked(): stored once the
  /// durable write and the hot-window push are done, so a reader that
  /// sees it can fetch everything below it.
  std::atomic<std::uint64_t> end_offset_{0};
  std::uint64_t bytes_ PE_GUARDED_BY(mutex_) = 0;
  std::shared_ptr<std::atomic<std::int64_t>> hot_counter_
      PE_GUARDED_BY(mutex_);
  // LogDir is internally synchronized; the pointer itself is immutable
  // after construction.
  std::unique_ptr<storage::LogDir> log_dir_;
  storage::RecoveryReport recovery_report_;
};

}  // namespace pe::broker
