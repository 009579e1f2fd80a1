// Configuration and report types for the durable commit-log engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace pe::storage {

/// When appended records reach stable storage (fsync). Nothing syncs in
/// the background: every fsync runs on the thread of an append, a sync()
/// or a close. What each policy guarantees after a power-loss-style crash
/// is specified in DESIGN.md §9.
enum class FlushPolicy {
  kNever,          // never fsync explicitly; the OS decides
  kEveryNRecords,  // fsync after every flush_every_n appended records
  kEverySync,      // fsync before every append returns (Kafka acks=all)
};

constexpr const char* to_string(FlushPolicy p) {
  switch (p) {
    case FlushPolicy::kNever: return "never";
    case FlushPolicy::kEveryNRecords: return "every-n-records";
    case FlushPolicy::kEverySync: return "every-sync";
  }
  return "?";
}

struct StorageConfig {
  /// A segment rolls once its file exceeds this many bytes.
  std::uint64_t segment_max_bytes = 8ull << 20;  // 8 MiB
  FlushPolicy flush_policy = FlushPolicy::kEveryNRecords;
  /// For kEveryNRecords.
  std::uint64_t flush_every_n = 256;
};

/// What LogDir::open found (and fixed) while scanning a directory.
struct RecoveryReport {
  std::size_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t bytes_recovered = 0;
  /// Bytes cut off the torn tail (partial/corrupt trailing batches).
  std::uint64_t torn_bytes_truncated = 0;
  /// Segments deleted because they were unreadable or discontiguous.
  std::size_t segments_deleted = 0;
  std::uint64_t start_offset = 0;
  std::uint64_t next_offset = 0;
  Duration elapsed = Duration::zero();

  std::string to_string() const {
    return "segments=" + std::to_string(segments_scanned) +
           " records=" + std::to_string(records_recovered) +
           " bytes=" + std::to_string(bytes_recovered) +
           " torn_bytes=" + std::to_string(torn_bytes_truncated) +
           " deleted=" + std::to_string(segments_deleted) + " offsets=[" +
           std::to_string(start_offset) + "," +
           std::to_string(next_offset) + ")";
  }
};

/// Per-segment metadata snapshot (diagnostics and retention decisions).
struct SegmentInfo {
  std::uint64_t base_offset = 0;
  std::uint64_t end_offset = 0;  // exclusive
  std::uint64_t bytes = 0;       // valid (CRC-checked) file bytes
  std::uint64_t first_timestamp_ns = 0;
  std::uint64_t last_timestamp_ns = 0;
  bool active = false;

  std::uint64_t record_count() const { return end_offset - base_offset; }
};

}  // namespace pe::storage
