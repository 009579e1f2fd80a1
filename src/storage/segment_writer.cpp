#include "storage/segment_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "telemetry/metrics.h"

namespace pe::storage {

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::open(Segment* segment) {
  std::unique_ptr<SegmentWriter> writer(new SegmentWriter(segment));
  const int fd = ::open(segment->path().c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open '" + segment->path() +
                            "': " + std::strerror(errno));
  }
  writer->fd_ = fd;
  // Recovery decided that the valid prefix ends at segment->bytes(): cut
  // any torn tail off and pin the prefix to stable storage.
  if (::ftruncate(fd, static_cast<off_t>(segment->bytes())) != 0) {
    return Status::Internal("ftruncate '" + segment->path() +
                            "': " + std::strerror(errno));
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    return Status::Internal("lseek '" + segment->path() +
                            "': " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    return Status::Internal("fsync '" + segment->path() +
                            "': " + std::strerror(errno));
  }
  writer->synced_bytes_ = segment->bytes();
  writer->synced_offset_ = segment->end_offset();
  return writer;
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::open_recycled(
    Segment* segment) {
  std::unique_ptr<SegmentWriter> writer(new SegmentWriter(segment));
  const int fd = ::open(segment->path().c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open recycled '" + segment->path() +
                            "': " + std::strerror(errno));
  }
  writer->fd_ = fd;  // write position 0: nothing of the old file is valid
  writer->stale_tail_ = true;
  writer->synced_offset_ = segment->end_offset();
  return writer;
}

SegmentWriter::~SegmentWriter() { close(); }

Status SegmentWriter::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write '" + segment_->path() +
                              "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

void SegmentWriter::restore_tail() {
  // A failed write may have landed a partial batch past the last valid
  // one; the segment metadata still ends at the last full batch, so cut
  // the file back there. Without this the *next* append would write after
  // the garbage and permanently desynchronize file and metadata.
  if (::ftruncate(fd_, static_cast<off_t>(segment_->bytes())) == 0 &&
      ::lseek(fd_, 0, SEEK_END) >= 0) {
    stale_tail_ = false;
    return;
  }
  PE_LOG_ERROR("segment '" << segment_->path()
                           << "': cannot restore tail after failed write ("
                           << std::strerror(errno)
                           << "), closing the writer");
  ::close(fd_);
  fd_ = -1;
}

Status SegmentWriter::append_encoded(const Bytes& buf,
                                     const BatchHeader& batch) {
  if (fd_ < 0) return Status::FailedPrecondition("segment writer closed");
  const std::uint64_t pos = segment_->bytes();
  if (auto s = write_all(buf.data(), buf.size()); !s.ok()) {
    restore_tail();
    return s;
  }
  segment_->note_append(batch, pos);
  appended_records_ += batch.count;
  return Status::Ok();
}

SegmentWriter::SyncMark SegmentWriter::begin_sync() const {
  SyncMark mark;
  mark.bytes = segment_->bytes();
  mark.offset = segment_->end_offset();
  mark.appended_records_total = appended_records_;
  return mark;
}

Status SegmentWriter::sync_file_only() {
  if (fd_ < 0) return Status::FailedPrecondition("segment writer closed");
  const auto t0 = Clock::now();
  // fdatasync, not fsync: POSIX requires it to flush all metadata needed
  // to retrieve the written data — which includes the file size for
  // appends — while skipping timestamp-only inode updates. Same crash
  // guarantee for a commit log, measurably cheaper per group commit.
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("fdatasync '" + segment_->path() +
                            "': " + std::strerror(errno));
  }
  const double us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          Clock::now() - t0)
          .count();
  // Resolved once: this runs on every group commit of every replica.
  static Histogram& fsync_us =
      tel::MetricsRegistry::global().histogram("storage.fsync_us");
  static tel::Counter& fsyncs =
      tel::MetricsRegistry::global().counter("storage.fsyncs");
  fsync_us.record(us);
  fsyncs.add();
  return Status::Ok();
}

void SegmentWriter::note_synced(const SyncMark& mark) {
  if (mark.bytes > synced_bytes_) synced_bytes_ = mark.bytes;
  if (mark.offset > synced_offset_) synced_offset_ = mark.offset;
  if (mark.appended_records_total > synced_records_) {
    synced_records_ = mark.appended_records_total;
  }
}

Status SegmentWriter::sync() {
  if (fd_ < 0) return Status::FailedPrecondition("segment writer closed");
  if (dirty_records() == 0 && synced_bytes_ == segment_->bytes()) {
    return Status::Ok();
  }
  const SyncMark mark = begin_sync();
  if (auto s = sync_file_only(); !s.ok()) return s;
  note_synced(mark);
  return Status::Ok();
}

Status SegmentWriter::truncate_unsynced(double keep_fraction) {
  if (fd_ < 0) return Status::FailedPrecondition("segment writer closed");
  if (keep_fraction < 0.0) keep_fraction = 0.0;
  if (keep_fraction > 1.0) keep_fraction = 1.0;
  const std::uint64_t dirty_bytes = segment_->bytes() - synced_bytes_;
  const std::uint64_t keep =
      synced_bytes_ +
      static_cast<std::uint64_t>(static_cast<double>(dirty_bytes) *
                                 keep_fraction);
  Status result = Status::Ok();
  if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
    result = Status::Internal("ftruncate '" + segment_->path() +
                              "': " + std::strerror(errno));
  }
  ::close(fd_);  // deliberately no fsync: this models the power cut
  fd_ = -1;
  return result;
}

Status SegmentWriter::seal() {
  if (fd_ < 0) return Status::FailedPrecondition("segment writer closed");
  if (!stale_tail_) return sync();
  // Recycled file: the older segment's batches past the valid bytes would
  // read as a torn tail in the middle of the log. The sync below makes
  // the shorter length durable along with the data.
  if (::ftruncate(fd_, static_cast<off_t>(segment_->bytes())) != 0) {
    return Status::Internal("ftruncate '" + segment_->path() +
                            "': " + std::strerror(errno));
  }
  stale_tail_ = false;
  const SyncMark mark = begin_sync();
  if (auto s = sync_file_only(); !s.ok()) return s;
  note_synced(mark);
  return Status::Ok();
}

void SegmentWriter::close() {
  if (fd_ < 0) return;
  (void)seal();  // clean shutdown persists everything (Kafka does too)
  ::close(fd_);
  fd_ = -1;
}

}  // namespace pe::storage
