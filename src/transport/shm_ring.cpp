#include "transport/shm_ring.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/crc32c.h"
#include "telemetry/metrics.h"

namespace pe::transport {

namespace {

constexpr std::uint64_t kMagic = 0x50455249'4e473031ull;  // "PERING01"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4096;

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

Status errno_status(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

// Shared header at the front of the mapping. Atomics on std::uint64_t are
// address-free (lock-free) on every platform this builds for, which is
// what makes them usable across process boundaries; the static_asserts
// below pin that assumption.
struct ShmRing::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t capacity;
  // Producer-written commit cursor. Own cache line: the producer stores
  // it per push, and sharing a line with head would make every push/pop
  // pair ping the same line in both directions.
  alignas(64) std::atomic<std::uint64_t> tail;
  // Consumer-written read cursor (published by commit()).
  alignas(64) std::atomic<std::uint64_t> head;
  // Producer liveness: monotonic timestamp + pid, read by the control
  // plane's GC from a different process.
  alignas(64) std::atomic<std::uint64_t> heartbeat_ns;
  std::atomic<std::uint64_t> producer_pid;
  std::atomic<std::uint32_t> closed;
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-memory ring cursors must be address-free atomics");

struct ShmRing::Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;

  ~Mapping() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

ShmRing::ShmRing(std::string name, Role role,
                 std::shared_ptr<Mapping> mapping)
    : name_(std::move(name)), role_(role), mapping_(std::move(mapping)) {
  static_assert(sizeof(Header) <= 4096,
                "ring header must fit the header page");
  hdr_ = static_cast<Header*>(mapping_->base);
  data_ = static_cast<std::uint8_t*>(mapping_->base) + kHeaderBytes;
  cached_head_ = hdr_->head.load(std::memory_order_acquire);
  read_pos_ = cached_head_;
}

ShmRing::~ShmRing() = default;

std::uint64_t ShmRing::capacity() const { return hdr_->capacity; }

Result<std::unique_ptr<ShmRing>> ShmRing::create(
    const std::string& name, std::uint64_t capacity_bytes) {
  if (name.empty() || name[0] != '/') {
    return Status::InvalidArgument("shm name must start with '/'");
  }
  const std::uint64_t capacity = align8(capacity_bytes < 64 ? 64
                                                            : capacity_bytes);
  const std::size_t total = kHeaderBytes + capacity;
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("shm '" + name + "' already exists");
    }
    return errno_status("shm_open('" + name + "')");
  }
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    auto s = errno_status("ftruncate('" + name + "')");
    ::close(fd);
    ::shm_unlink(name.c_str());
    return s;
  }
  void* base =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    return errno_status("mmap('" + name + "')");
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->base = base;
  mapping->bytes = total;

  auto* hdr = static_cast<Header*>(base);
  hdr->capacity = capacity;
  hdr->version = kVersion;
  hdr->reserved = 0;
  hdr->tail.store(0, std::memory_order_relaxed);
  hdr->head.store(0, std::memory_order_relaxed);
  hdr->producer_pid.store(static_cast<std::uint64_t>(::getpid()),
                          std::memory_order_relaxed);
  hdr->heartbeat_ns.store(Clock::now_ns(), std::memory_order_relaxed);
  hdr->closed.store(0, std::memory_order_relaxed);
  // The magic is published last: an open() racing create() rejects a
  // half-initialized header instead of reading garbage cursors.
  std::atomic_thread_fence(std::memory_order_release);
  hdr->magic = kMagic;

  return std::unique_ptr<ShmRing>(
      new ShmRing(name, Role::kProducer, std::move(mapping)));
}

Result<std::unique_ptr<ShmRing>> ShmRing::open_role(const std::string& name,
                                                    Role role) {
  int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("shm '" + name + "' not found");
    }
    return errno_status("shm_open('" + name + "')");
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    auto s = errno_status("fstat('" + name + "')");
    ::close(fd);
    return s;
  }
  if (static_cast<std::uint64_t>(st.st_size) < kHeaderBytes + 64) {
    ::close(fd);
    return Status::FailedPrecondition("shm '" + name + "' too small");
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return errno_status("mmap('" + name + "')");
  auto mapping = std::make_shared<Mapping>();
  mapping->base = base;
  mapping->bytes = static_cast<std::size_t>(st.st_size);

  auto* hdr = static_cast<Header*>(base);
  if (hdr->magic != kMagic || hdr->version != kVersion) {
    return Status::FailedPrecondition("shm '" + name +
                                      "' is not a PERING01 ring");
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (kHeaderBytes + hdr->capacity > mapping->bytes) {
    return Status::FailedPrecondition("shm '" + name +
                                      "' capacity exceeds object size");
  }
  return std::unique_ptr<ShmRing>(new ShmRing(name, role, std::move(mapping)));
}

Result<std::unique_ptr<ShmRing>> ShmRing::open(const std::string& name) {
  return open_role(name, Role::kConsumer);
}

Result<std::unique_ptr<ShmRing>> ShmRing::open_monitor(
    const std::string& name) {
  return open_role(name, Role::kMonitor);
}

Status ShmRing::unlink(const std::string& name) {
  if (::shm_unlink(name.c_str()) != 0 && errno != ENOENT) {
    return errno_status("shm_unlink('" + name + "')");
  }
  return Status::Ok();
}

Status ShmRing::try_push_once(ByteSpan payload) {
  const std::uint64_t capacity = hdr_->capacity;
  const std::uint64_t frame = kFrameHeaderBytes + align8(payload.size());
  const std::uint64_t pos = hdr_->tail.load(std::memory_order_relaxed);
  const std::uint64_t off = pos % capacity;
  const std::uint64_t contig = capacity - off;
  // A wrapping push consumes the residue at the end PLUS the full frame
  // at offset 0.
  const std::uint64_t need = contig < frame ? contig + frame : frame;

  if (capacity - (pos - cached_head_) < need) {
    // Refresh the consumer's cursor before declaring the ring full: the
    // acquire pairs with commit()'s release, making every byte the
    // consumer released safely overwritable.
    cached_head_ = hdr_->head.load(std::memory_order_acquire);
    if (capacity - (pos - cached_head_) < need) {
      return Status::ResourceExhausted("ring full");
    }
  }

  std::uint64_t write_off = off;
  std::uint64_t new_pos = pos;
  if (contig < frame) {
    // Contiguity guarantee: frames never straddle the end. Mark the
    // residue (always >= 8 bytes: offsets and frames are 8-aligned) so
    // the consumer skips it.
    std::uint32_t marker = kWrapMarker;
    std::memcpy(data_ + off, &marker, sizeof(marker));
    new_pos += contig;
    write_off = 0;
    stats_.wraps += 1;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = storage::crc32c(payload.data(), payload.size());
  std::memcpy(data_ + write_off, &len, sizeof(len));
  std::memcpy(data_ + write_off + 4, &crc, sizeof(crc));
  if (!payload.empty()) {
    std::memcpy(data_ + write_off + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  // Publish: everything memcpy'd above happens-before any consumer that
  // observes the new tail.
  hdr_->tail.store(new_pos + frame, std::memory_order_release);
  stats_.records_pushed += 1;
  stats_.bytes_pushed += payload.size();
  return Status::Ok();
}

Status ShmRing::push(ByteSpan payload, Duration timeout) {
  // Worst case a frame needs a full wrap residue; requiring one spare
  // frame-header of slack keeps `need <= capacity` in try_push_once.
  if (kFrameHeaderBytes + align8(payload.size()) + kFrameHeaderBytes >
      hdr_->capacity) {
    return Status::InvalidArgument("payload larger than ring capacity");
  }
  auto s = try_push_once(payload);
  if (s.ok()) return s;
  static tel::Counter& full_waits =
      tel::MetricsRegistry::global().counter("transport.ring_full_waits");
  stats_.full_waits += 1;
  full_waits.add();
  if (timeout <= Duration::zero()) return Status::Timeout("ring full");
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    Clock::sleep_exact(std::chrono::microseconds(50));
    s = try_push_once(payload);
    if (s.ok()) return s;
  }
  return Status::Timeout("ring full for " +
                         std::to_string(std::chrono::duration_cast<
                                            std::chrono::milliseconds>(timeout)
                                            .count()) +
                         "ms");
}

void ShmRing::heartbeat() {
  hdr_->heartbeat_ns.store(Clock::now_ns(), std::memory_order_relaxed);
}

void ShmRing::close_producer() {
  hdr_->closed.store(1, std::memory_order_release);
}

Result<broker::Payload> ShmRing::pop() {
  const std::uint64_t capacity = hdr_->capacity;
  while (true) {
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (read_pos_ == tail) return Status::NotFound("ring empty");
    const std::uint64_t off = read_pos_ % capacity;
    std::uint32_t len = 0;
    std::memcpy(&len, data_ + off, sizeof(len));
    if (len == kWrapMarker) {
      read_pos_ += capacity - off;  // skip the residue, restart at 0
      continue;
    }
    if (kFrameHeaderBytes + len > capacity - off) {
      stats_.crc_errors += 1;
      return Status::Internal("ring frame overruns the data region");
    }
    std::uint32_t crc = 0;
    std::memcpy(&crc, data_ + off + 4, sizeof(crc));
    const std::uint8_t* payload = data_ + off + kFrameHeaderBytes;
    if (storage::crc32c(payload, len) != crc) {
      stats_.crc_errors += 1;
      return Status::Internal("ring frame CRC mismatch at position " +
                              std::to_string(read_pos_));
    }
    read_pos_ += kFrameHeaderBytes + align8(len);
    stats_.records_popped += 1;
    stats_.bytes_popped += len;
    // Zero-copy: the view aliases the mapping; the shared Mapping keeps
    // the memory valid for as long as any view lives.
    return broker::Payload::view(mapping_, payload, len);
  }
}

void ShmRing::commit() {
  hdr_->head.store(read_pos_, std::memory_order_release);
}

bool ShmRing::drained_and_closed() const {
  return producer_closed() &&
         read_pos_ == hdr_->tail.load(std::memory_order_acquire);
}

bool ShmRing::producer_closed() const {
  return hdr_->closed.load(std::memory_order_acquire) != 0;
}

std::uint64_t ShmRing::producer_pid() const {
  return hdr_->producer_pid.load(std::memory_order_relaxed);
}

std::uint64_t ShmRing::heartbeat_age_ns() const {
  const std::uint64_t hb = hdr_->heartbeat_ns.load(std::memory_order_relaxed);
  const std::uint64_t now = Clock::now_ns();
  return now > hb ? now - hb : 0;
}

std::uint64_t ShmRing::backlog_bytes() const {
  const std::uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
  const std::uint64_t head = hdr_->head.load(std::memory_order_acquire);
  return tail - head;
}

}  // namespace pe::transport
