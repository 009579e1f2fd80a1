// RunReport: aggregates completed spans into the numbers the paper plots.
//
// For each run the report carries message/byte throughput per component
// window (producer, broker, processing) and latency distributions per
// stage — the exact quantities of Fig. 2 and Fig. 3.
//
// The aggregates are fixed-size: SpanTotals holds counts, windows and
// exact integer-nanosecond sums (mean, stddev, min, max), and
// SpanLatencies holds one log-linear bucket array per stage for the
// percentiles. A SpanCollector folds each span into both as it completes,
// so a report costs the same after a thousand spans or a billion.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "telemetry/span.h"

namespace pe::tel {

struct RunReport {
  std::string label;
  std::size_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t rows = 0;

  /// Wall-clock seconds from first produce to last processing end.
  double window_seconds = 0.0;
  /// Producer-side window: first to last produce.
  double produce_window_seconds = 0.0;
  /// Broker ingest window: first to last broker append.
  double broker_window_seconds = 0.0;
  /// Processing window: first process start to last process end.
  double process_window_seconds = 0.0;

  // Throughput, end-to-end window based.
  double messages_per_second = 0.0;
  double mbytes_per_second = 0.0;
  // Component rates (paper: used to find the bottleneck component).
  double producer_msgs_per_second = 0.0;
  double broker_in_msgs_per_second = 0.0;
  double processing_msgs_per_second = 0.0;

  // Stage latency distributions (milliseconds). count, mean, stddev, min
  // and max are exact; p50/p90/p99 come from LatencyBuckets.
  SummaryStats end_to_end_ms;
  SummaryStats ingress_ms;
  SummaryStats broker_residency_ms;
  SummaryStats processing_ms;

  /// Multi-line human-readable block.
  std::string to_string() const;
  /// Single CSV row (see csv_header()).
  std::string to_csv_row() const;
  static std::string csv_header();
};

/// Log-linear (HdrHistogram-style) counts of unsigned integer samples in
/// fixed memory (30 KB, allocated by the first record). Values below 128
/// get a bucket each; every power of two above that splits into 64 equal
/// sub-buckets, so a bucket's midpoint is within 1/128 of every value it
/// holds. `record` is one relaxed atomic increment and may run on any
/// thread.
class LatencyBuckets {
 public:
  static constexpr unsigned kSubBucketBits = 6;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr std::size_t kBuckets =
      kSubBuckets * (64 - kSubBucketBits + 1);

  LatencyBuckets() = default;
  ~LatencyBuckets();
  LatencyBuckets(const LatencyBuckets&) = delete;
  LatencyBuckets& operator=(const LatencyBuckets&) = delete;

  void record(std::uint64_t value) {
    std::atomic<std::uint64_t>* counts =
        counts_.load(std::memory_order_acquire);
    if (counts == nullptr) counts = allocate();
    counts[index_of(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Values at each quantile in `qs` (each in [0,1]), interpolated between
  /// order statistics as Histogram::percentile does, each order statistic
  /// read as its bucket's midpoint. 0 when empty.
  std::vector<double> percentiles(const std::vector<double>& qs) const;

  void clear();

 private:
  static std::size_t index_of(std::uint64_t value);
  static std::uint64_t midpoint_of(std::size_t index);
  std::atomic<std::uint64_t>* allocate();

  // Null until the first record: a collector that never completes a span
  // (and pipeline setup) touches none of these pages.
  std::atomic<std::atomic<std::uint64_t>*> counts_{nullptr};
};

/// Exact per-stage latency sums in integer nanoseconds.
struct StageTotals {
  unsigned __int128 sum = 0;
  unsigned __int128 sum_sq = 0;
  std::uint64_t min = UINT64_MAX;
  std::uint64_t max = 0;

  void add(std::uint64_t ns);
  void merge(const StageTotals& other);
};

/// Everything a report needs from completed spans except percentiles.
/// Plain data, not synchronized; add() takes complete spans only.
struct SpanTotals {
  std::size_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t rows = 0;
  std::uint64_t first_produce = 0, last_produce = 0;
  std::uint64_t first_broker = 0, last_broker = 0;
  std::uint64_t first_pstart = 0, last_pend = 0;
  StageTotals end_to_end, ingress, residency, processing;

  void add(const MessageSpan& span);
  void merge(const SpanTotals& other);
};

/// One LatencyBuckets per reported stage; add() is thread-safe.
struct SpanLatencies {
  LatencyBuckets end_to_end, ingress, residency, processing;

  void add(const MessageSpan& span);
  void clear();
};

/// The report math: rates and windows from `totals`, exact moments from
/// its sums and percentiles from `latencies`.
RunReport make_report(const SpanTotals& totals,
                      const SpanLatencies& latencies, std::string label);

/// Builds a report from completed spans. Incomplete spans are ignored.
RunReport build_report(const std::vector<MessageSpan>& spans,
                       std::string label = "");

}  // namespace pe::tel
