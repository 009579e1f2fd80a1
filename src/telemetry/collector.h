// SpanCollector: thread-safe store for in-flight and completed spans.
//
// Every pipeline stage stamps its timestamp through the collector; the
// report module then derives throughput and latency distributions from
// the completed spans.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "telemetry/span.h"

namespace pe::tel {

class SpanCollector {
 public:
  /// Registers a new message at produce time.
  void on_produced(std::uint64_t message_id, const std::string& producer_id,
                   std::uint32_t partition, std::uint64_t payload_bytes,
                   std::uint64_t rows, std::uint64_t produced_ns);

  void on_edge_processed(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_sent(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_broker(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_consumed(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_process_start(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_process_end(std::uint64_t message_id, std::uint64_t ts_ns);

  /// Number of spans whose processing finished.
  std::size_t completed_count() const;
  std::size_t total_count() const;

  /// Snapshot of all spans (completed and in-flight).
  std::vector<MessageSpan> snapshot() const;

  /// Snapshot of completed spans only.
  std::vector<MessageSpan> completed() const;

  void clear();

 private:
  template <typename F>
  void update(std::uint64_t message_id, F&& f) {
    MutexLock lock(mutex_);
    auto it = spans_.find(message_id);
    if (it != spans_.end()) f(it->second);
  }

  mutable Mutex mutex_;
  std::map<std::uint64_t, MessageSpan> spans_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::tel
