// One segment of the commit log: a fixed-max-size file of record batches
// (storage/record_batch.h) plus a sparse in-memory index of batch starts,
// rebuilt on open. Recovery's scan fully reads every batch; the index
// walks hop over batch headers.
//
// Segments are named "<base_offset padded to 20 digits>.seg" so a
// lexicographic directory listing is offset order. A Segment instance is
// NOT internally synchronized — LogDir serializes all access under its
// own mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/record_batch.h"

namespace pe::storage {

/// A sparse index entry is kept roughly every this many file bytes.
inline constexpr std::uint64_t kIndexIntervalBytes = 4096;

/// Shared read-only mapping of a segment file. Payload views alias this
/// region, so it stays alive (and the pages stay readable) until the last
/// consumer drops its record — including after the file is unlinked by
/// retention or the segment is remapped at a larger size.
class MmapRegion {
 public:
  /// Maps the first `length` bytes of `path` read-only.
  static Result<std::shared_ptr<MmapRegion>> map(const std::string& path,
                                                 std::uint64_t length);
  ~MmapRegion();

  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }

 private:
  MmapRegion(const std::uint8_t* data, std::uint64_t size)
      : data_(data), size_(size) {}

  const std::uint8_t* data_;
  std::uint64_t size_;
};

/// A batch start: its base offset, file position and first timestamp.
struct IndexEntry {
  std::uint64_t offset = 0;
  std::uint64_t file_pos = 0;
  std::uint64_t broker_timestamp_ns = 0;
};

class Segment {
 public:
  Segment(std::string path, std::uint64_t base_offset);

  /// Full read of every batch in the file (lengths, CRCs, and offset
  /// density from base_offset); rebuilds the sparse index and returns the
  /// torn tail's size. Metadata reflects only the valid prefix: the first
  /// invalid batch and everything after it are the torn tail, dropped
  /// whole. A non-empty file whose first batch is already invalid is NOT
  /// an error — that is an all-torn segment with zero records.
  ///
  /// The density check is part of the recovery contract, not a sanity
  /// check: a recycled file's tail holds CRC-valid batches of an older
  /// offset range, and the first batch whose base offset is not the next
  /// one expected is where the valid data ends.
  Result<std::uint64_t> scan();

  /// Write path bookkeeping for a batch appended at `file_pos`.
  void note_append(const BatchHeader& batch, std::uint64_t file_pos);

  /// Mapping covering at least the current valid bytes (cached; remapped
  /// when the segment has grown past the cached region). Every region it
  /// maps is remembered weakly, so has_live_mapping() can tell whether a
  /// reader still holds one.
  Result<std::shared_ptr<MmapRegion>> mapping() const;

  /// Drops the cached mapping; the next mapping() maps the file again.
  /// Views already handed out keep their region alive on their own.
  void release_mapping() const { map_.reset(); }

  /// True while any region mapping() handed out (the cached one included)
  /// is still referenced. A file with a live mapping must not be
  /// overwritten: the reader's pages are the file's pages.
  bool has_live_mapping() const;

  /// File position of the batch holding `offset`; hops batch headers
  /// forward from the nearest preceding index entry. Precondition: offset
  /// in [base_offset, end_offset).
  Result<std::uint64_t> position_of(std::uint64_t offset) const;

  /// First offset whose broker timestamp is >= ts_ns, or end_offset()
  /// when every record in the segment is older. Hops batch headers to the
  /// first batch whose max timestamp reaches ts_ns, then reads that one.
  Result<std::uint64_t> offset_for_timestamp(std::uint64_t ts_ns) const;

  /// Full read of the batch at file position `pos` (values are views of
  /// the mapping); INTERNAL when it is not a valid batch.
  Status read_batch(std::uint64_t pos, BatchReader* batch) const;

  /// Cuts the file so the segment ends exactly at `offset` and rescans it.
  /// The kept records of the batch holding `offset` are rewritten in place
  /// as a batch of their own (same bytes at the same file positions).
  Status cut_at(std::uint64_t offset);

  const std::string& path() const { return path_; }
  std::uint64_t base_offset() const { return base_offset_; }
  std::uint64_t end_offset() const { return next_offset_; }
  std::uint64_t record_count() const { return next_offset_ - base_offset_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t first_timestamp_ns() const {
    return index_.empty() ? 0 : index_.front().broker_timestamp_ns;
  }
  std::uint64_t last_timestamp_ns() const { return last_timestamp_ns_; }
  const std::vector<IndexEntry>& index() const { return index_; }

 private:
  /// Hops batch headers from `pos` to the first batch `stop` accepts.
  template <typename Stop>
  Result<std::uint64_t> hop(std::uint64_t pos, Stop stop) const;

  const std::string path_;
  const std::uint64_t base_offset_;
  std::uint64_t next_offset_;
  std::uint64_t bytes_ = 0;
  std::uint64_t last_timestamp_ns_ = 0;
  std::vector<IndexEntry> index_;
  mutable std::shared_ptr<MmapRegion> map_;
  mutable std::vector<std::weak_ptr<const MmapRegion>> handed_out_;
};

/// Formats a segment file name: 20-digit zero-padded base offset + ".seg".
std::string segment_file_name(std::uint64_t base_offset);

/// Parses a segment file name; false when `name` is not one.
bool parse_segment_file_name(const std::string& name,
                             std::uint64_t* base_offset);

}  // namespace pe::storage
