#include "telemetry/report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>

namespace pe::tel {
namespace {

double rate(std::size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

double window_seconds(std::uint64_t first_ns, std::uint64_t last_ns) {
  return last_ns > first_ns
             ? static_cast<double>(last_ns - first_ns) / 1e9
             : 0.0;
}

// Widens [lo, hi] to take `v`; 0 is "no stamp" and leaves both alone.
void track(std::uint64_t v, std::uint64_t& lo, std::uint64_t& hi) {
  if (v == 0) return;
  if (lo == 0 || v < lo) lo = v;
  if (v > hi) hi = v;
}

SummaryStats summarize(std::size_t count, const StageTotals& stage,
                       const LatencyBuckets& buckets) {
  SummaryStats s;
  s.count = count;
  if (count == 0) return s;
  const auto n = static_cast<long double>(count);
  const auto sum = static_cast<long double>(stage.sum);
  const auto sum_sq = static_cast<long double>(stage.sum_sq);
  s.mean = static_cast<double>(sum / n) / 1e6;
  if (count > 1) {
    const long double var = (sum_sq - sum * sum / n) / (n - 1);
    s.stddev = var > 0 ? static_cast<double>(std::sqrt(var)) / 1e6 : 0.0;
  }
  s.min = MessageSpan::to_ms(stage.min);
  s.max = MessageSpan::to_ms(stage.max);
  const auto q = buckets.percentiles({0.50, 0.90, 0.99});
  // The exact extremes bound every bucket estimate.
  const auto clamp = [&](double ns) {
    return std::clamp(ns / 1e6, s.min, s.max);
  };
  s.p50 = clamp(q[0]);
  s.p90 = clamp(q[1]);
  s.p99 = clamp(q[2]);
  return s;
}

}  // namespace

LatencyBuckets::~LatencyBuckets() {
  delete[] counts_.load(std::memory_order_relaxed);
}

std::atomic<std::uint64_t>* LatencyBuckets::allocate() {
  auto fresh = std::make_unique<std::atomic<std::uint64_t>[]>(kBuckets);
  std::atomic<std::uint64_t>* current = nullptr;
  if (counts_.compare_exchange_strong(current, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    return fresh.release();
  }
  return current;  // another thread's array won
}

std::size_t LatencyBuckets::index_of(std::uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<std::size_t>(value);
  // value = 1.sub * 2^exp with a kSubBucketBits-bit sub: shift out the rest.
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(value)) - 1 - kSubBucketBits;
  return static_cast<std::size_t>(shift) * kSubBuckets +
         static_cast<std::size_t>(value >> shift);
}

std::uint64_t LatencyBuckets::midpoint_of(std::size_t index) {
  if (index < 2 * kSubBuckets) return index;
  const std::size_t shift = index / kSubBuckets - 1;
  const std::uint64_t lower =
      static_cast<std::uint64_t>(index % kSubBuckets + kSubBuckets) << shift;
  return lower + ((std::uint64_t{1} << shift) - 1) / 2;
}

std::vector<double> LatencyBuckets::percentiles(
    const std::vector<double>& qs) const {
  // One snapshot, so every quantile reads the same counts.
  std::vector<std::uint64_t> counts(kBuckets);
  std::uint64_t total = 0;
  if (const auto* live = counts_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts[i] = live[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
  }
  std::vector<double> out;
  out.reserve(qs.size());
  // Value of the order statistic `rank` (0-based).
  const auto value_at = [&](std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) return static_cast<double>(midpoint_of(i));
    }
    return 0.0;
  };
  for (double q : qs) {
    if (total == 0) {
      out.push_back(0.0);
      continue;
    }
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(total - 1);
    const auto lo = static_cast<std::uint64_t>(pos);
    const std::uint64_t hi = std::min(lo + 1, total - 1);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(value_at(lo) * (1.0 - frac) + value_at(hi) * frac);
  }
  return out;
}

void LatencyBuckets::clear() {
  auto* live = counts_.load(std::memory_order_acquire);
  if (live == nullptr) return;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    live[i].store(0, std::memory_order_relaxed);
  }
}

void StageTotals::add(std::uint64_t ns) {
  sum += ns;
  sum_sq += static_cast<unsigned __int128>(ns) * ns;
  min = std::min(min, ns);
  max = std::max(max, ns);
}

void StageTotals::merge(const StageTotals& other) {
  sum += other.sum;
  sum_sq += other.sum_sq;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void SpanTotals::add(const MessageSpan& s) {
  messages += 1;
  payload_bytes += s.payload_bytes;
  rows += s.rows;
  end_to_end.add(s.end_to_end_ns());
  ingress.add(s.ingress_ns());
  residency.add(s.broker_residency_ns());
  processing.add(s.processing_ns());
  track(s.produced_ns, first_produce, last_produce);
  track(s.broker_ns, first_broker, last_broker);
  track(s.process_start_ns, first_pstart, last_pend);
  track(s.process_end_ns, first_pstart, last_pend);
}

void SpanTotals::merge(const SpanTotals& o) {
  messages += o.messages;
  payload_bytes += o.payload_bytes;
  rows += o.rows;
  end_to_end.merge(o.end_to_end);
  ingress.merge(o.ingress);
  residency.merge(o.residency);
  processing.merge(o.processing);
  track(o.first_produce, first_produce, last_produce);
  track(o.last_produce, first_produce, last_produce);
  track(o.first_broker, first_broker, last_broker);
  track(o.last_broker, first_broker, last_broker);
  track(o.first_pstart, first_pstart, last_pend);
  track(o.last_pend, first_pstart, last_pend);
}

void SpanLatencies::add(const MessageSpan& s) {
  end_to_end.record(s.end_to_end_ns());
  ingress.record(s.ingress_ns());
  residency.record(s.broker_residency_ns());
  processing.record(s.processing_ns());
}

void SpanLatencies::clear() {
  end_to_end.clear();
  ingress.clear();
  residency.clear();
  processing.clear();
}

RunReport make_report(const SpanTotals& totals,
                      const SpanLatencies& latencies, std::string label) {
  RunReport report;
  report.label = std::move(label);
  report.messages = totals.messages;
  report.payload_bytes = totals.payload_bytes;
  report.rows = totals.rows;

  report.window_seconds =
      window_seconds(totals.first_produce, totals.last_pend);
  report.produce_window_seconds =
      window_seconds(totals.first_produce, totals.last_produce);
  report.broker_window_seconds =
      window_seconds(totals.first_broker, totals.last_broker);
  report.process_window_seconds =
      window_seconds(totals.first_pstart, totals.last_pend);

  report.messages_per_second = rate(report.messages, report.window_seconds);
  report.mbytes_per_second =
      report.window_seconds > 0.0
          ? static_cast<double>(report.payload_bytes) / 1e6 /
                report.window_seconds
          : 0.0;
  report.producer_msgs_per_second =
      rate(report.messages, report.produce_window_seconds);
  report.broker_in_msgs_per_second =
      rate(report.messages, report.broker_window_seconds);
  report.processing_msgs_per_second =
      rate(report.messages, report.process_window_seconds);

  report.end_to_end_ms =
      summarize(totals.messages, totals.end_to_end, latencies.end_to_end);
  report.ingress_ms =
      summarize(totals.messages, totals.ingress, latencies.ingress);
  report.broker_residency_ms =
      summarize(totals.messages, totals.residency, latencies.residency);
  report.processing_ms =
      summarize(totals.messages, totals.processing, latencies.processing);
  return report;
}

RunReport build_report(const std::vector<MessageSpan>& spans,
                       std::string label) {
  SpanTotals totals;
  SpanLatencies latencies;
  for (const MessageSpan& s : spans) {
    if (!s.complete()) continue;
    totals.add(s);
    latencies.add(s);
  }
  return make_report(totals, latencies, std::move(label));
}

std::string RunReport::to_string() const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(2);
  oss << "=== " << label << " ===\n"
      << "messages:          " << messages << " (" << rows << " rows, "
      << static_cast<double>(payload_bytes) / 1e6 << " MB)\n"
      << "window:            " << window_seconds << " s\n"
      << "throughput:        " << messages_per_second << " msg/s, "
      << mbytes_per_second << " MB/s\n"
      << "component rates:   producer " << producer_msgs_per_second
      << " msg/s | broker-in " << broker_in_msgs_per_second
      << " msg/s | processing " << processing_msgs_per_second << " msg/s\n"
      << "latency e2e [ms]:  " << end_to_end_ms.to_string() << "\n"
      << "  ingress:         " << ingress_ms.to_string() << "\n"
      << "  broker resid.:   " << broker_residency_ms.to_string() << "\n"
      << "  processing:      " << processing_ms.to_string() << "\n";
  return oss.str();
}

std::string RunReport::csv_header() {
  return "label,messages,payload_mb,window_s,msgs_per_s,mb_per_s,"
         "producer_msgs_s,broker_msgs_s,processing_msgs_s,"
         "e2e_ms_mean,e2e_ms_p50,e2e_ms_p99,"
         "ingress_ms_mean,broker_residency_ms_mean,processing_ms_mean";
}

std::string RunReport::to_csv_row() const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(3);
  oss << label << ',' << messages << ','
      << static_cast<double>(payload_bytes) / 1e6 << ',' << window_seconds
      << ',' << messages_per_second << ',' << mbytes_per_second << ','
      << producer_msgs_per_second << ',' << broker_in_msgs_per_second << ','
      << processing_msgs_per_second << ',' << end_to_end_ms.mean << ','
      << end_to_end_ms.p50 << ',' << end_to_end_ms.p99 << ','
      << ingress_ms.mean << ',' << broker_residency_ms.mean << ','
      << processing_ms.mean;
  return oss.str();
}

}  // namespace pe::tel
