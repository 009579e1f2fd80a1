#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/crc32c.h"

namespace pe::storage {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian hosts only (the repo's supported targets)
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void encode_frame(Bytes& out, std::uint64_t offset,
                  std::uint64_t broker_timestamp_ns,
                  const broker::Record& record) {
  const std::uint32_t body_len =
      kFrameBodyFixedBytes + static_cast<std::uint32_t>(record.key.size()) +
      static_cast<std::uint32_t>(record.value.size());
  out.reserve(out.size() + kFrameHeaderBytes + body_len);
  put_u32(out, body_len);
  const std::size_t crc_pos = out.size();
  put_u32(out, 0);  // patched below
  const std::size_t body_pos = out.size();
  put_u64(out, offset);
  put_u64(out, broker_timestamp_ns);
  put_u64(out, record.client_timestamp_ns);
  put_u32(out, static_cast<std::uint32_t>(record.key.size()));
  out.insert(out.end(), record.key.begin(), record.key.end());
  put_u32(out, static_cast<std::uint32_t>(record.value.size()));
  out.insert(out.end(), record.value.begin(), record.value.end());
  const std::uint32_t crc = crc32c(out.data() + body_pos, body_len);
  std::memcpy(out.data() + crc_pos, &crc, sizeof(crc));
}

FrameParse parse_frame(const std::uint8_t* p, std::uint64_t avail,
                       FrameView* out) {
  if (avail < kFrameHeaderBytes) return FrameParse::kTorn;
  const std::uint32_t body_len = read_u32(p);
  if (body_len < kFrameBodyFixedBytes || body_len > kMaxFrameBodyBytes) {
    return FrameParse::kTorn;
  }
  if (avail - kFrameHeaderBytes < body_len) return FrameParse::kTorn;
  const std::uint32_t want_crc = read_u32(p + 4);
  const std::uint8_t* body = p + kFrameHeaderBytes;
  if (crc32c(body, body_len) != want_crc) return FrameParse::kTorn;

  FrameView v;
  v.offset = read_u64(body);
  v.broker_timestamp_ns = read_u64(body + 8);
  v.client_timestamp_ns = read_u64(body + 16);
  v.key_len = read_u32(body + 24);
  // Internal length consistency (CRC already vouches for the bytes, but a
  // frame written by a buggy encoder must not read out of bounds).
  if (static_cast<std::uint64_t>(v.key_len) + kFrameBodyFixedBytes >
      body_len) {
    return FrameParse::kTorn;
  }
  v.key = body + 28;
  v.value_len = read_u32(body + 28 + v.key_len);
  if (kFrameBodyFixedBytes + static_cast<std::uint64_t>(v.key_len) +
          v.value_len !=
      body_len) {
    return FrameParse::kTorn;
  }
  v.value = body + 32 + v.key_len;
  v.frame_bytes = kFrameHeaderBytes + static_cast<std::uint64_t>(body_len);
  *out = v;
  return FrameParse::kOk;
}

Result<std::shared_ptr<MmapRegion>> MmapRegion::map(const std::string& path,
                                                    std::uint64_t length) {
  if (length == 0) {
    // Zero-length mappings are invalid; model an empty file as an empty
    // region with no backing pages.
    return std::shared_ptr<MmapRegion>(new MmapRegion(nullptr, 0));
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open '" + path +
                            "' for mmap: " + std::strerror(errno));
  }
  void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (addr == MAP_FAILED) {
    return Status::Internal("mmap '" + path + "' (" + std::to_string(length) +
                            " bytes): " + std::strerror(errno));
  }
  return std::shared_ptr<MmapRegion>(
      new MmapRegion(static_cast<const std::uint8_t*>(addr), length));
}

MmapRegion::~MmapRegion() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

Segment::Segment(std::string path, std::uint64_t base_offset)
    : path_(std::move(path)),
      base_offset_(base_offset),
      next_offset_(base_offset) {}

void Segment::maybe_index(std::uint64_t offset,
                          std::uint64_t broker_timestamp_ns,
                          std::uint64_t file_pos) {
  if (!index_has_entry_ ||
      file_pos - last_index_pos_ >= kIndexIntervalBytes) {
    index_.push_back(IndexEntry{offset, file_pos, broker_timestamp_ns});
    last_index_pos_ = file_pos;
    index_has_entry_ = true;
  }
}

void Segment::note_append(std::uint64_t offset,
                          std::uint64_t broker_timestamp_ns,
                          std::uint64_t file_pos,
                          std::uint64_t frame_bytes) {
  maybe_index(offset, broker_timestamp_ns, file_pos);
  if (next_offset_ == base_offset_) first_timestamp_ns_ = broker_timestamp_ns;
  last_timestamp_ns_ = broker_timestamp_ns;
  next_offset_ = offset + 1;
  bytes_ = file_pos + frame_bytes;
}

Result<Segment::ScanResult> Segment::scan() {
  struct ::stat st {};
  if (::stat(path_.c_str(), &st) != 0) {
    return Status::Internal("stat '" + path_ + "': " + std::strerror(errno));
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);

  index_.clear();
  index_has_entry_ = false;
  last_index_pos_ = 0;
  next_offset_ = base_offset_;
  bytes_ = 0;
  first_timestamp_ns_ = 0;
  last_timestamp_ns_ = 0;
  map_.reset();

  ScanResult result;
  if (file_bytes == 0) return result;

  auto mapped = MmapRegion::map(path_, file_bytes);
  if (!mapped.ok()) return mapped.status();
  const std::uint8_t* data = mapped.value()->data();

  std::uint64_t pos = 0;
  std::uint64_t expect = base_offset_;
  while (pos < file_bytes) {
    FrameView frame;
    if (parse_frame(data + pos, file_bytes - pos, &frame) !=
        FrameParse::kOk) {
      break;  // torn tail: valid data ends at `pos`
    }
    // Density violated: a torn tail, or a recycled file's stale frames.
    if (frame.offset != expect) break;
    note_append(frame.offset, frame.broker_timestamp_ns, pos,
                frame.frame_bytes);
    pos += frame.frame_bytes;
    expect = frame.offset + 1;
  }

  result.valid_bytes = pos;
  result.next_offset = next_offset_;
  result.torn_bytes = file_bytes - pos;
  return result;
}

Result<std::shared_ptr<MmapRegion>> Segment::mapping() const {
  if (!map_ || map_->size() < bytes_) {
    auto mapped = MmapRegion::map(path_, bytes_);
    if (!mapped.ok()) return mapped.status();
    map_ = std::move(mapped).value();
    std::erase_if(handed_out_,
                  [](const auto& region) { return region.expired(); });
    handed_out_.push_back(map_);
  }
  return map_;
}

bool Segment::has_live_mapping() const {
  return std::any_of(handed_out_.begin(), handed_out_.end(),
                     [](const auto& region) { return !region.expired(); });
}

Result<std::uint64_t> Segment::position_of(std::uint64_t offset) const {
  if (offset < base_offset_ || offset >= next_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " outside segment [" +
                              std::to_string(base_offset_) + "," +
                              std::to_string(next_offset_) + ")");
  }
  // Nearest index entry at or before `offset` (entries are offset-sorted).
  std::size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (index_[mid].offset <= offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // lo = first entry with offset > target; entry lo-1 is the floor. The
  // first index entry is always the segment base, so lo >= 1 here.
  std::uint64_t pos = index_[lo - 1].file_pos;
  std::uint64_t at = index_[lo - 1].offset;

  auto mapped = mapping();
  if (!mapped.ok()) return mapped.status();
  const auto& region = *mapped.value();
  while (at < offset) {
    FrameView frame;
    if (pos >= region.size() ||
        parse_frame(region.data() + pos, region.size() - pos, &frame) !=
            FrameParse::kOk) {
      return Status::Internal("segment '" + path_ +
                              "' index walk hit invalid frame at byte " +
                              std::to_string(pos));
    }
    pos += frame.frame_bytes;
    ++at;
  }
  return pos;
}

Result<std::uint64_t> Segment::offset_for_timestamp(
    std::uint64_t ts_ns) const {
  if (record_count() == 0 || last_timestamp_ns_ < ts_ns) {
    return next_offset_;
  }
  // Index entries are timestamp-monotone (append order): binary search to
  // the last entry strictly older than ts, then walk frames.
  std::size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (index_[mid].broker_timestamp_ns < ts_ns) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Entry lo (if any) already satisfies ts >= ts_ns; the answer is between
  // entry lo-1 and entry lo. Walk from the floor entry.
  std::uint64_t pos = lo == 0 ? index_.front().file_pos
                              : index_[lo - 1].file_pos;
  std::uint64_t at = lo == 0 ? index_.front().offset : index_[lo - 1].offset;

  auto mapped = mapping();
  if (!mapped.ok()) return mapped.status();
  const auto& region = *mapped.value();
  while (at < next_offset_) {
    FrameView frame;
    if (pos >= region.size() ||
        parse_frame(region.data() + pos, region.size() - pos, &frame) !=
            FrameParse::kOk) {
      return Status::Internal("segment '" + path_ +
                              "' timestamp walk hit invalid frame at byte " +
                              std::to_string(pos));
    }
    if (frame.broker_timestamp_ns >= ts_ns) return at;
    pos += frame.frame_bytes;
    ++at;
  }
  return next_offset_;
}

std::string segment_file_name(std::uint64_t base_offset) {
  std::string digits = std::to_string(base_offset);
  return std::string(20 - digits.size(), '0') + digits + ".seg";
}

bool parse_segment_file_name(const std::string& name,
                             std::uint64_t* base_offset) {
  if (name.size() != 24 || name.substr(20) != ".seg") return false;
  std::uint64_t value = 0;
  for (char c : name.substr(0, 20)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *base_offset = value;
  return true;
}

}  // namespace pe::storage
