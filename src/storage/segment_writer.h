// Append side of the active segment: writes batches LogDir encoded onto the
// file with immediate write() (so readers can always map appended data)
// and applies the configured fsync policy. One SegmentWriter exists per
// LogDir at a time; LogDir serializes all calls under its own mutex —
// except sync_file_only(), which LogDir's group-commit leader calls with
// the mutex released (the begin_sync/sync_file_only/note_synced split
// below).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/segment.h"

namespace pe::storage {

class SegmentWriter {
 public:
  /// Snapshot of the append marks at the moment a sync started. Taken
  /// under the LogDir lock; applied (note_synced) under the lock after
  /// the fsync ran outside it. The sync covers at least these marks —
  /// bytes appended while the fsync was in flight stay dirty.
  struct SyncMark {
    std::uint64_t bytes = 0;
    std::uint64_t offset = 0;
    std::uint64_t appended_records_total = 0;
  };

  /// Opens (creating if needed) the segment's file for appending. The file
  /// is first truncated to the segment's valid byte count — recovery has
  /// already decided where durable data ends — and fsynced once so the
  /// recovered prefix is stably on disk.
  static Result<std::unique_ptr<SegmentWriter>> open(Segment* segment);

  /// Opens a recycled file, already renamed to the empty `segment`'s name,
  /// without truncating it: appends overwrite the older segment's batches
  /// from byte 0, on pages the file already holds. Recovery rejects the
  /// stale batches past the valid bytes by their offsets (Segment::scan).
  static Result<std::unique_ptr<SegmentWriter>> open_recycled(
      Segment* segment);

  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// The one write: `buf` holds one encoded batch, described by `batch`,
  /// written with one write() call. The bytes reach the OS before this
  /// returns and stable storage per the LogDir flush policy. A failed or
  /// short write restores the file to the last batch boundary: the batch
  /// is wholly on file or not at all, never ahead of the metadata.
  Status append_encoded(const Bytes& buf, const BatchHeader& batch);

  /// fsync. Records the latency in the "storage.fsync_us" histogram,
  /// bumps "storage.fsyncs", and advances the synced marks. Composes
  /// begin_sync + sync_file_only + note_synced for callers that hold the
  /// LogDir lock across the whole thing (close, roll).
  Status sync();

  /// Group-commit split of sync(): capture the marks this sync will cover
  /// (call under the LogDir lock)...
  SyncMark begin_sync() const;
  /// ...run the fsync itself — touches only the fd, safe with the LogDir
  /// lock released as long as the writer is not mutated concurrently
  /// (LogDir guarantees that via its sync-in-flight gate)...
  Status sync_file_only();
  /// ...and publish the covered marks (under the lock again). Records
  /// appended while the fsync ran remain dirty.
  void note_synced(const SyncMark& mark);

  /// Offset up to which (exclusive) records are power-loss durable.
  std::uint64_t synced_offset() const { return synced_offset_; }
  std::uint64_t synced_bytes() const { return synced_bytes_; }
  /// Records appended since the last sync.
  std::uint64_t dirty_records() const {
    return appended_records_ - synced_records_;
  }

  /// Power-loss simulation: keeps the synced prefix plus `keep_fraction`
  /// of the unsynced tail bytes (possibly cutting a batch in half — that
  /// is the point), truncates the file there, and closes WITHOUT syncing.
  /// The writer is unusable afterwards.
  Status truncate_unsynced(double keep_fraction);

  /// Seals the segment: cuts a recycled file's stale tail at the valid
  /// bytes, then syncs, so the sealed file holds nothing past its last
  /// record. A roll seals the outgoing segment.
  Status seal();

  /// Clean close: seal, then close the fd.
  void close();

 private:
  explicit SegmentWriter(Segment* segment) : segment_(segment) {}

  Status write_all(const std::uint8_t* data, std::size_t size);
  /// After a failed/short write: cut the file back to the segment's valid
  /// byte count and reposition at the end, so the next append starts at a
  /// batch boundary. Poisons the writer (closes the fd) when even the
  /// restore fails — appends after that fail loudly instead of
  /// interleaving garbage.
  void restore_tail();

  Segment* segment_;
  int fd_ = -1;
  /// True while a recycled file may still hold older batches past the
  /// valid bytes (until seal() or restore_tail() cuts them).
  bool stale_tail_ = false;
  std::uint64_t synced_bytes_ = 0;
  std::uint64_t synced_offset_ = 0;
  /// Monotone counters; dirty_records() is their difference. Cumulative
  /// (rather than a resettable dirty count) so a group-commit sync can
  /// publish exactly what it covered via SyncMark.
  std::uint64_t appended_records_ = 0;
  std::uint64_t synced_records_ = 0;
};

}  // namespace pe::storage
