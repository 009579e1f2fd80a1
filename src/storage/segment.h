// One segment of the commit log: a fixed-max-size file of CRC32C-framed
// records plus a sparse in-memory offset index rebuilt on open.
//
// On-disk frame layout (little endian):
//   u32 body_len | u32 crc32c(body) | body
//   body: u64 offset | u64 broker_ts_ns | u64 client_ts_ns |
//         u32 key_len | key | u32 value_len | value
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

#include "broker/record.h"
#include "common/status.h"

namespace pe::storage {

inline constexpr std::uint32_t kFrameHeaderBytes = 8;   // len + crc
inline constexpr std::uint32_t kFrameBodyFixedBytes = 32;  // 3*u64 + 2*u32
/// Sanity bound used by the recovery scanner: a length field above this is
/// treated as a torn/corrupt frame, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBodyBytes = 256u << 20;
/// A sparse index entry is kept roughly every this many file bytes.
inline constexpr std::uint64_t kIndexIntervalBytes = 4096;

/// A parsed frame pointing into a mapped or in-memory buffer.
struct FrameView {
  std::uint64_t offset = 0;
  std::uint64_t broker_timestamp_ns = 0;
  std::uint64_t client_timestamp_ns = 0;
  const std::uint8_t* key = nullptr;
  std::uint32_t key_len = 0;
  const std::uint8_t* value = nullptr;
  std::uint32_t value_len = 0;
  /// Total frame size including the 8-byte header.
  std::uint64_t frame_bytes = 0;
};

/// Appends one framed record to `out`.
void encode_frame(Bytes& out, std::uint64_t offset,
                  std::uint64_t broker_timestamp_ns,
                  const broker::Record& record);

enum class FrameParse {
  kOk,
  kTorn,  // truncated header/body or CRC mismatch: valid data ends here
};

/// Parses the frame at `p` (with `avail` readable bytes). kTorn means the
/// bytes from `p` on are not a complete valid frame — the recovery
/// contract is to truncate the file at that position.
FrameParse parse_frame(const std::uint8_t* p, std::uint64_t avail,
                       FrameView* out);

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

struct IndexEntry {
  std::uint64_t offset = 0;
  std::uint64_t file_pos = 0;
  std::uint64_t broker_timestamp_ns = 0;
};

class Segment {
 public:
  struct ScanResult {
    std::uint64_t valid_bytes = 0;
    std::uint64_t next_offset = 0;
    /// Trailing bytes after the last valid frame (torn tail to truncate).
    std::uint64_t torn_bytes = 0;
  };

  Segment(std::string path, std::uint64_t base_offset);

  /// Walks every frame in the file, verifying lengths, CRCs, and offset
  /// density from base_offset, and rebuilds the sparse index. Metadata
  /// reflects only the valid prefix afterwards. Fails (INTERNAL) when the
  /// first frame is already invalid but the file is non-empty is NOT an
  /// error — that is an all-torn segment with zero records.
  ///
  /// The density check is part of the recovery contract, not a sanity
  /// check: a recycled file's tail holds CRC-valid frames of an older
  /// offset range, and the first frame whose offset is not the next one
  /// expected is where the valid data ends.
  Result<ScanResult> scan();

  /// Write path bookkeeping for a frame appended at `file_pos`.
  void note_append(std::uint64_t offset, std::uint64_t broker_timestamp_ns,
                   std::uint64_t file_pos, std::uint64_t frame_bytes);

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

  /// File position of the frame holding `offset`; walks forward from the
  /// nearest preceding index entry. Precondition: offset in
  /// [base_offset, end_offset).
  Result<std::uint64_t> position_of(std::uint64_t offset) const;

  /// First offset whose broker timestamp is >= ts_ns, or end_offset()
  /// when every record in the segment is older.
  Result<std::uint64_t> offset_for_timestamp(std::uint64_t ts_ns) const;

  const std::string& path() const { return path_; }
  std::uint64_t base_offset() const { return base_offset_; }
  std::uint64_t end_offset() const { return next_offset_; }
  std::uint64_t record_count() const { return next_offset_ - base_offset_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t first_timestamp_ns() const { return first_timestamp_ns_; }
  std::uint64_t last_timestamp_ns() const { return last_timestamp_ns_; }
  const std::vector<IndexEntry>& index() const { return index_; }

 private:
  void maybe_index(std::uint64_t offset, std::uint64_t broker_timestamp_ns,
                   std::uint64_t file_pos);

  const std::string path_;
  const std::uint64_t base_offset_;
  std::uint64_t next_offset_;
  std::uint64_t bytes_ = 0;
  std::uint64_t first_timestamp_ns_ = 0;
  std::uint64_t last_timestamp_ns_ = 0;
  std::uint64_t last_index_pos_ = 0;
  bool index_has_entry_ = false;
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
