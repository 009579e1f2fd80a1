// The striped span collector under concurrency, its bucketed report
// against exact statistics, and its memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "telemetry/collector.h"
#include "telemetry/report.h"

namespace pe::tel {
namespace {

// Feeds one complete span through the collector's stamps.
void stamp_all(SpanCollector& collector, const MessageSpan& s) {
  collector.on_produced(s.message_id, s.producer_id, s.partition,
                        s.payload_bytes, s.rows, s.produced_ns);
  collector.on_sent(s.message_id, s.sent_ns);
  collector.on_broker(s.message_id, s.broker_ns);
  collector.on_consumed(s.message_id, s.consumed_ns);
  collector.on_process_start(s.message_id, s.process_start_ns);
  collector.on_process_end(s.message_id, s.process_end_ns);
}

TEST(StripedCollectorTest, FourThreadsLoseAndDoubleCountNoSpan) {
  // Each thread produces every 4th id and completes the ids its neighbour
  // produced, so produce stamps and completions interleave on every
  // stripe from different threads, as in the pipeline.
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kIds = 200'000;
  constexpr std::uint64_t kPerThread = kIds / kThreads;
  SpanCollector collector;
  std::array<std::atomic<std::uint64_t>, kThreads> produced{};
  const auto id_of = [](std::uint64_t thread, std::uint64_t i) {
    return i * kThreads + thread + 1;
  };

  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t source = (t + 1) % kThreads;
      std::uint64_t completed = 0;
      const auto complete_available = [&] {
        const std::uint64_t avail =
            produced[source].load(std::memory_order_acquire);
        for (; completed < avail; ++completed) {
          const std::uint64_t id = id_of(source, completed);
          collector.on_consumed(id, 10 * id + 3);
          collector.on_process_start(id, 10 * id + 4);
          collector.on_process_end(id, 10 * id + 5);
        }
      };
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id = id_of(t, i);
        collector.on_produced(id, "dev", static_cast<std::uint32_t>(t), 100,
                              1, 10 * id);
        collector.on_sent(id, 10 * id + 1);
        collector.on_broker(id, 10 * id + 2);
        produced[t].store(i + 1, std::memory_order_release);
        complete_available();
      }
      while (completed < kPerThread) {
        complete_available();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(collector.completed_count(), kIds);
  EXPECT_EQ(collector.in_flight_count(), 0u);
  EXPECT_EQ(collector.total_count(), kIds);
  const RunReport report = collector.report("four-threads");
  EXPECT_EQ(report.messages, kIds);
  EXPECT_EQ(report.payload_bytes, 100 * kIds);
  EXPECT_EQ(report.rows, kIds);
  // Every span took exactly 5 ns end to end and 1 ns of processing.
  EXPECT_EQ(report.end_to_end_ms.min, 5e-6);
  EXPECT_EQ(report.end_to_end_ms.max, 5e-6);
  EXPECT_EQ(report.processing_ms.p99, 1e-6);
  EXPECT_LE(collector.snapshot().size(), SpanCollector::kRecentWindow);
}

// Seeded lognormal stage latencies (median ~10 us each, long right tail).
std::vector<MessageSpan> lognormal_spans(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> stage(std::log(10'000.0), 1.2);
  const auto draw = [&] {
    return static_cast<std::uint64_t>(stage(rng)) + 1;
  };
  std::vector<MessageSpan> spans;
  std::uint64_t t = 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    MessageSpan s;
    s.message_id = i + 1;
    s.producer_id = "dev-" + std::to_string(i % 3);
    s.payload_bytes = 6400 + i % 7;
    s.rows = 25;
    t += draw() / 4;
    s.produced_ns = t;
    s.sent_ns = s.produced_ns + 1;
    s.broker_ns = s.produced_ns + draw();
    s.consumed_ns = s.broker_ns + draw();
    s.process_start_ns = s.consumed_ns + draw() / 8;
    s.process_end_ns = s.process_start_ns + draw();
    spans.push_back(s);
  }
  return spans;
}

void expect_near_exact(const SummaryStats& bucketed, Histogram& exact,
                       const char* stage) {
  SCOPED_TRACE(stage);
  const SummaryStats e = exact.summary();
  EXPECT_EQ(bucketed.count, e.count);
  EXPECT_EQ(bucketed.min, e.min);
  EXPECT_EQ(bucketed.max, e.max);
  EXPECT_NEAR(bucketed.mean, e.mean, e.mean * 1e-10);
  EXPECT_NEAR(bucketed.stddev, e.stddev, e.stddev * 1e-9);
  EXPECT_NEAR(bucketed.p50, e.p50, e.p50 / 64);
  EXPECT_NEAR(bucketed.p90, e.p90, e.p90 / 64);
  EXPECT_NEAR(bucketed.p99, e.p99, e.p99 / 64);
}

TEST(BucketedReportTest, PercentilesWithinOneSixtyFourthOfExact) {
  const auto spans = lognormal_spans(50'000, 20261018);
  Histogram e2e, ingress, residency, processing;
  std::uint64_t e2e_sum = 0;
  std::uint64_t first_produce = UINT64_MAX, last_produce = 0;
  std::uint64_t first_broker = UINT64_MAX, last_broker = 0;
  std::uint64_t first_pstart = UINT64_MAX, last_pend = 0;
  for (const MessageSpan& s : spans) {
    e2e.record(s.end_to_end_ms());
    ingress.record(s.ingress_ms());
    residency.record(s.broker_residency_ms());
    processing.record(s.processing_ms());
    e2e_sum += s.end_to_end_ns();
    first_produce = std::min(first_produce, s.produced_ns);
    last_produce = std::max(last_produce, s.produced_ns);
    first_broker = std::min(first_broker, s.broker_ns);
    last_broker = std::max(last_broker, s.broker_ns);
    first_pstart = std::min(first_pstart, s.process_start_ns);
    last_pend = std::max(last_pend, s.process_end_ns);
  }

  const RunReport report = build_report(spans, "lognormal");
  EXPECT_EQ(report.messages, spans.size());
  expect_near_exact(report.end_to_end_ms, e2e, "end-to-end");
  expect_near_exact(report.ingress_ms, ingress, "ingress");
  expect_near_exact(report.broker_residency_ms, residency, "residency");
  expect_near_exact(report.processing_ms, processing, "processing");
  // The mean is the exact integer-nanosecond one.
  EXPECT_DOUBLE_EQ(report.end_to_end_ms.mean,
                   static_cast<double>(e2e_sum) /
                       static_cast<double>(spans.size()) / 1e6);
  EXPECT_DOUBLE_EQ(report.window_seconds,
                   static_cast<double>(last_pend - first_produce) / 1e9);
  EXPECT_DOUBLE_EQ(report.produce_window_seconds,
                   static_cast<double>(last_produce - first_produce) / 1e9);
  EXPECT_DOUBLE_EQ(report.broker_window_seconds,
                   static_cast<double>(last_broker - first_broker) / 1e9);
  EXPECT_DOUBLE_EQ(report.process_window_seconds,
                   static_cast<double>(last_pend - first_pstart) / 1e9);

  // The collector folds the same spans across its stripes into the same
  // numbers: there is one aggregation path.
  SpanCollector collector;
  for (const MessageSpan& s : spans) stamp_all(collector, s);
  const RunReport folded = collector.report("lognormal");
  EXPECT_EQ(folded.to_string(), report.to_string());
  EXPECT_EQ(folded.to_csv_row(), report.to_csv_row());
  EXPECT_EQ(folded.end_to_end_ms.p90, report.end_to_end_ms.p90);
  EXPECT_EQ(folded.broker_residency_ms.stddev,
            report.broker_residency_ms.stddev);
}

TEST(StripedCollectorTest, MemoryStaysWithinTheRecentWindow) {
  constexpr std::uint64_t kSpans = 1'000'000;
  SpanCollector collector;
  for (std::uint64_t id = 1; id <= kSpans; ++id) {
    collector.on_produced(id, "d", 0, 10, 1, id);
    collector.on_process_end(id, id + 7);
  }
  EXPECT_EQ(collector.completed_count(), kSpans);
  EXPECT_EQ(collector.in_flight_count(), 0u);
  EXPECT_LE(collector.snapshot().size(), SpanCollector::kRecentWindow);
  const auto recent = collector.completed();
  EXPECT_EQ(recent.size(), SpanCollector::kRecentWindow);
  // The kept spans are the latest ones.
  for (const MessageSpan& s : recent) {
    EXPECT_GT(s.message_id, kSpans - 2 * SpanCollector::kRecentWindow);
  }
  EXPECT_EQ(collector.report("bounded").messages, kSpans);
}

TEST(StripedCollectorTest, IncompleteAtProcessEndStaysInFlight) {
  SpanCollector collector;
  collector.on_produced(1, "d", 0, 10, 1, /*produced_ns=*/0);
  collector.on_process_end(1, 500);
  EXPECT_EQ(collector.completed_count(), 0u);
  EXPECT_EQ(collector.in_flight_count(), 1u);
  EXPECT_TRUE(collector.completed().empty());
  EXPECT_EQ(collector.report("none").messages, 0u);
}

}  // namespace
}  // namespace pe::tel
