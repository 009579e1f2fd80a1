// The record batch: the one byte layout of a record, shared by segment
// files and the socket 'B' frames; no other code reads or writes a
// record's key, value or timestamps as bytes. Little endian (DESIGN §9):
//
//   header: u64 base_offset | u32 crc32c | u32 batch_bytes | u32 count |
//           u64 first_timestamp_ns | u64 max_timestamp_ns
//   record: u32 offset_delta (= its index) | u64 broker_timestamp_ns |
//           u64 client_timestamp_ns | u32 key_len | u32 value_len |
//           key | value
//
// The CRC covers every byte after the CRC field. The base offset sits
// outside it, so a batch can move to another offset without
// re-checksumming; a produce batch carries zero offsets and timestamps.
#pragma once

#include <cstdint>
#include <memory>

#include "broker/record.h"
#include "common/status.h"

namespace pe::storage {

inline constexpr std::uint64_t kBatchHeaderBytes = 36;
inline constexpr std::uint64_t kRecordFixedBytes = 28;

struct BatchHeader {
  std::uint64_t base_offset = 0;
  std::uint32_t count = 0;
  std::uint64_t first_timestamp_ns = 0;
  std::uint64_t max_timestamp_ns = 0;
  std::uint64_t bytes = 0;  // the whole batch, header included

  std::uint64_t end_offset() const { return base_offset + count; }
};

/// Bytes `record` adds to a batch.
inline std::uint64_t batch_record_bytes(const broker::Record& record) {
  return kRecordFixedBytes + record.key.size() + record.value.size();
}

/// Appends one batch to `out`: records at consecutive offsets from
/// `base_offset`, then finish() writes the header and the CRC.
class BatchBuilder {
 public:
  BatchBuilder(Bytes& out, std::uint64_t base_offset);
  void add(const broker::Record& record, std::uint64_t broker_timestamp_ns);
  BatchHeader finish();

 private:
  Bytes& out_;
  const std::size_t start_;
  BatchHeader header_;
};

/// Header-only peek for the index walks: reads no record bytes and
/// computes no CRC. False when `avail` holds no whole header, or the size
/// field is wild (past `avail`, or too small for `count` records).
bool peek_batch(const std::uint8_t* p, std::uint64_t avail,
                BatchHeader* header);

/// The full read: open() checks the size fields, the CRC and every
/// record's offset delta and lengths once, allocating nothing, before
/// next() yields any record.
class BatchReader {
 public:
  /// INVALID_ARGUMENT unless [p, p + avail) starts with one whole valid
  /// batch. The values next() yields are views co-owned by `owner`.
  Status open(const std::uint8_t* p, std::uint64_t avail,
              std::shared_ptr<const void> owner = nullptr);
  const BatchHeader& header() const { return header_; }

  /// Fills the next record (key copied, value a view), not its topic or
  /// partition. False past the last record or after a failed open().
  bool next(broker::ConsumedRecord* out);

 private:
  const std::uint8_t* p_ = nullptr;
  std::shared_ptr<const void> owner_;
  BatchHeader header_;
  std::uint32_t index_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace pe::storage
