#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

namespace pe::storage {

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

void Segment::note_append(const BatchHeader& batch, std::uint64_t file_pos) {
  if (index_.empty() ||
      file_pos - index_.back().file_pos >= kIndexIntervalBytes) {
    index_.push_back(
        IndexEntry{batch.base_offset, file_pos, batch.first_timestamp_ns});
  }
  last_timestamp_ns_ = batch.max_timestamp_ns;
  next_offset_ = batch.end_offset();
  bytes_ = file_pos + batch.bytes;
}

Result<std::uint64_t> Segment::scan() {
  struct ::stat st {};
  if (::stat(path_.c_str(), &st) != 0) {
    return Status::Internal("stat '" + path_ + "': " + std::strerror(errno));
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);

  index_.clear();
  next_offset_ = base_offset_;
  bytes_ = 0;
  last_timestamp_ns_ = 0;
  map_.reset();

  auto mapped = MmapRegion::map(path_, file_bytes);
  if (!mapped.ok()) return mapped.status();
  const std::uint8_t* data = mapped.value()->data();

  std::uint64_t pos = 0;
  while (pos < file_bytes) {
    BatchReader batch;
    // A torn batch, or a recycled file's stale one (density violated):
    // valid data ends at `pos`.
    if (!batch.open(data + pos, file_bytes - pos).ok() ||
        batch.header().base_offset != next_offset_) {
      break;
    }
    note_append(batch.header(), pos);
    pos += batch.header().bytes;
  }

  return file_bytes - pos;
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

template <typename Stop>
Result<std::uint64_t> Segment::hop(std::uint64_t pos, Stop stop) const {
  auto mapped = mapping();
  if (!mapped.ok()) return mapped.status();
  const MmapRegion& region = *mapped.value();
  for (BatchHeader header;; pos += header.bytes) {
    if (pos >= bytes_ ||
        !peek_batch(region.data() + pos, bytes_ - pos, &header)) {
      return Status::Internal("segment '" + path_ +
                              "' index walk hit an invalid batch at byte " +
                              std::to_string(pos));
    }
    if (stop(header)) return pos;
  }
}

Status Segment::read_batch(std::uint64_t pos, BatchReader* batch) const {
  auto mapped = mapping();
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<MmapRegion>& region = mapped.value();
  const std::uint64_t avail = pos < bytes_ ? bytes_ - pos : 0;
  if (auto s = batch->open(region->data() + pos, avail, region); !s.ok()) {
    return Status::Internal("segment '" + path_ + "' byte " +
                            std::to_string(pos) + ": " + s.message());
  }
  return Status::Ok();
}

Result<std::uint64_t> Segment::position_of(std::uint64_t offset) const {
  if (offset < base_offset_ || offset >= next_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " outside segment [" +
                              std::to_string(base_offset_) + "," +
                              std::to_string(next_offset_) + ")");
  }
  // Last index entry at or before `offset` (entries are offset-sorted;
  // the first is always the segment base).
  const auto floor = std::upper_bound(
      index_.begin(), index_.end(), offset,
      [](std::uint64_t o, const IndexEntry& e) { return o < e.offset; });
  return hop(std::prev(floor)->file_pos, [offset](const BatchHeader& h) {
    return offset < h.end_offset();
  });
}

Result<std::uint64_t> Segment::offset_for_timestamp(
    std::uint64_t ts_ns) const {
  if (record_count() == 0 || last_timestamp_ns_ < ts_ns) {
    return next_offset_;
  }
  // Index entries are timestamp-monotone (append order): start from the
  // last entry whose batch begins strictly older than ts_ns; the batch
  // after it begins at or past ts_ns.
  const auto after = std::partition_point(
      index_.begin(), index_.end(),
      [ts_ns](const IndexEntry& e) { return e.broker_timestamp_ns < ts_ns; });
  const IndexEntry& from = after == index_.begin() ? *after : *(after - 1);
  auto pos = hop(from.file_pos, [ts_ns](const BatchHeader& h) {
    return h.max_timestamp_ns >= ts_ns;
  });
  if (!pos.ok()) return pos.status();
  BatchReader batch;
  if (auto s = read_batch(pos.value(), &batch); !s.ok()) return s;
  // The batch's max timestamp reaches ts_ns, so some record does.
  broker::ConsumedRecord record;
  while (batch.next(&record) && record.broker_timestamp_ns < ts_ns) {
  }
  return record.offset;
}

Status Segment::cut_at(std::uint64_t offset) {
  auto pos = position_of(offset);
  if (!pos.ok()) return pos.status();
  BatchReader batch;
  if (auto s = read_batch(pos.value(), &batch); !s.ok()) return s;
  Bytes kept;
  if (batch.header().base_offset < offset) {
    BatchBuilder builder(kept, batch.header().base_offset);
    broker::ConsumedRecord record;
    while (batch.next(&record) && record.offset < offset) {
      builder.add(record.record, record.broker_timestamp_ns);
    }
    builder.finish();
  }
  // The kept batch is written before the cut: a crash between the two
  // leaves it followed by a torn tail, which recovery drops.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  const auto at = static_cast<off_t>(pos.value());
  const bool ok =
      fd >= 0 &&
      ::pwrite(fd, kept.data(), kept.size(), at) ==
          static_cast<ssize_t>(kept.size()) &&
      ::ftruncate(fd, at + static_cast<off_t>(kept.size())) == 0;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  if (!ok) {
    return Status::Internal("cut '" + path_ + "': " + std::strerror(err));
  }
  return scan().status();
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
