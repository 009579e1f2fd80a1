// SpanCollector: thread-safe store for in-flight spans and fixed-memory
// aggregates of completed ones.
//
// Every pipeline stage stamps its timestamp through the collector. The
// in-flight table is split into kStripes cache-line-aligned stripes keyed
// by message id, each under its own leaf mutex, so a stamp contends only
// with stamps of the same stripe. When processing ends, the span leaves
// the table and is folded into the report aggregates (SpanTotals per
// stripe, shared SpanLatencies) and into a small ring of recent spans.
// Memory is bounded by the spans in flight, not by the run's length.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "telemetry/report.h"
#include "telemetry/span.h"

namespace pe::tel {

class SpanCollector {
 public:
  static constexpr unsigned kStripeBits = 6;
  static constexpr std::size_t kStripes = std::size_t{1} << kStripeBits;
  /// Completed spans each stripe keeps for snapshot()/completed().
  static constexpr std::size_t kRecentPerStripe = 64;
  /// Upper bound on the completed spans snapshot()/completed() return.
  static constexpr std::size_t kRecentWindow = kStripes * kRecentPerStripe;

  /// Registers a new message at produce time.
  void on_produced(std::uint64_t message_id, const std::string& producer_id,
                   std::uint32_t partition, std::uint64_t payload_bytes,
                   std::uint64_t rows, std::uint64_t produced_ns);

  // Stamps for an id that is not in flight (never produced, or already
  // completed) are ignored.
  void on_edge_processed(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_sent(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_broker(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_consumed(std::uint64_t message_id, std::uint64_t ts_ns);
  void on_process_start(std::uint64_t message_id, std::uint64_t ts_ns);
  /// Completes the span: it leaves the in-flight table.
  void on_process_end(std::uint64_t message_id, std::uint64_t ts_ns);

  /// Number of spans whose processing finished since the last clear().
  std::size_t completed_count() const;
  /// Spans produced but not yet complete.
  std::size_t in_flight_count() const;
  std::size_t total_count() const;

  /// In-flight spans plus the recent completed ones, by message id.
  std::vector<MessageSpan> snapshot() const;

  /// The most recent completed spans (at most kRecentWindow), by id.
  std::vector<MessageSpan> completed() const;

  /// Report over every span completed since the last clear().
  RunReport report(std::string label) const;

  void clear();

 private:
  struct alignas(64) Stripe {
    mutable Mutex mutex;
    std::unordered_map<std::uint64_t, MessageSpan> live PE_GUARDED_BY(mutex);
    std::vector<MessageSpan> recent PE_GUARDED_BY(mutex);
    std::size_t recent_next PE_GUARDED_BY(mutex) = 0;
    SpanTotals totals PE_GUARDED_BY(mutex);
  };

  Stripe& stripe_of(std::uint64_t message_id) {
    // Fibonacci hashing: strided ids still spread over every stripe.
    return stripes_[(message_id * 0x9E3779B97F4A7C15ull) >>
                    (64 - kStripeBits)];
  }

  template <typename F>
  void update(std::uint64_t message_id, F&& f) {
    Stripe& stripe = stripe_of(message_id);
    MutexLock lock(stripe.mutex);
    auto it = stripe.live.find(message_id);
    if (it != stripe.live.end()) f(it->second);
  }

  std::array<Stripe, kStripes> stripes_;
  SpanLatencies latencies_;
};

}  // namespace pe::tel
