#include "storage/record_batch.h"

#include <algorithm>
#include <cstring>

#include "storage/crc32c.h"

namespace pe::storage {

namespace {

// Header fields after the base offset; the CRC covers [kBytesAt, end).
constexpr std::size_t kCrcAt = 8, kBytesAt = 12, kCountAt = 16,
                      kFirstTsAt = 20, kMaxTsAt = 28;

// Little-endian hosts only (the repo's supported targets).
template <typename T>
void store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}
template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Record fields: delta @0, broker ts @4, client ts @12, key length @20,
// value length @24, then the key and the value.
std::uint64_t record_size(const std::uint8_t* r) {
  return kRecordFixedBytes + std::uint64_t{load<std::uint32_t>(r + 20)} +
         load<std::uint32_t>(r + 24);
}

}  // namespace

BatchBuilder::BatchBuilder(Bytes& out, std::uint64_t base_offset)
    : out_(out), start_(out.size()) {
  header_.base_offset = base_offset;
  out_.resize(start_ + kBatchHeaderBytes);
}

void BatchBuilder::add(const broker::Record& record,
                       std::uint64_t broker_timestamp_ns) {
  if (header_.count == 0) header_.first_timestamp_ns = broker_timestamp_ns;
  header_.max_timestamp_ns =
      std::max(header_.max_timestamp_ns, broker_timestamp_ns);
  std::uint8_t fixed[kRecordFixedBytes];
  store(fixed, header_.count++);
  store(fixed + 4, broker_timestamp_ns);
  store(fixed + 12, record.client_timestamp_ns);
  store(fixed + 20, static_cast<std::uint32_t>(record.key.size()));
  store(fixed + 24, static_cast<std::uint32_t>(record.value.size()));
  out_.insert(out_.end(), fixed, fixed + kRecordFixedBytes);
  out_.insert(out_.end(), record.key.begin(), record.key.end());
  out_.insert(out_.end(), record.value.begin(), record.value.end());
}

BatchHeader BatchBuilder::finish() {
  header_.bytes = out_.size() - start_;
  std::uint8_t* p = out_.data() + start_;
  store(p, header_.base_offset);
  store(p + kBytesAt, static_cast<std::uint32_t>(header_.bytes));
  store(p + kCountAt, header_.count);
  store(p + kFirstTsAt, header_.first_timestamp_ns);
  store(p + kMaxTsAt, header_.max_timestamp_ns);
  store(p + kCrcAt, crc32c(p + kBytesAt, header_.bytes - kBytesAt));
  return header_;
}

bool peek_batch(const std::uint8_t* p, std::uint64_t avail,
                BatchHeader* header) {
  if (avail < kBatchHeaderBytes) return false;
  const std::uint64_t bytes = load<std::uint32_t>(p + kBytesAt);
  const std::uint32_t count = load<std::uint32_t>(p + kCountAt);
  if (bytes > avail || bytes < kBatchHeaderBytes + count * kRecordFixedBytes) {
    return false;
  }
  *header = {load<std::uint64_t>(p), count,
             load<std::uint64_t>(p + kFirstTsAt),
             load<std::uint64_t>(p + kMaxTsAt), bytes};
  return true;
}

Status BatchReader::open(const std::uint8_t* p, std::uint64_t avail,
                         std::shared_ptr<const void> owner) {
  p_ = nullptr;
  index_ = 0;
  pos_ = kBatchHeaderBytes;
  if (!peek_batch(p, avail, &header_)) {
    return Status::InvalidArgument("record batch truncated or oversized");
  }
  if (crc32c(p + kBytesAt, header_.bytes - kBytesAt) !=
      load<std::uint32_t>(p + kCrcAt)) {
    return Status::InvalidArgument("record batch CRC mismatch");
  }
  // The CRC vouches for the bytes, not for the encoder that wrote them:
  // no length is trusted before it is checked against the batch size.
  std::uint64_t pos = kBatchHeaderBytes;
  for (std::uint32_t i = 0; i < header_.count && pos <= header_.bytes; ++i) {
    const std::uint64_t left = header_.bytes - pos;
    const bool fits = left >= kRecordFixedBytes &&
                      load<std::uint32_t>(p + pos) == i &&
                      left >= record_size(p + pos);
    pos = fits ? pos + record_size(p + pos) : ~std::uint64_t{0};
  }
  if (pos != header_.bytes) {
    return Status::InvalidArgument("record batch lengths are inconsistent");
  }
  p_ = p;
  owner_ = std::move(owner);
  return Status::Ok();
}

bool BatchReader::next(broker::ConsumedRecord* out) {
  if (p_ == nullptr || index_ >= header_.count) return false;
  const std::uint8_t* r = p_ + pos_;
  const std::uint32_t key_len = load<std::uint32_t>(r + 20);
  const char* key = reinterpret_cast<const char*>(r + kRecordFixedBytes);
  out->offset = header_.base_offset + index_++;
  out->broker_timestamp_ns = load<std::uint64_t>(r + 4);
  out->record.client_timestamp_ns = load<std::uint64_t>(r + 12);
  out->record.key.assign(key, key_len);
  out->record.value = broker::Payload::view(
      owner_, r + kRecordFixedBytes + key_len, load<std::uint32_t>(r + 24));
  pos_ += record_size(r);
  return true;
}

}  // namespace pe::storage
