#include "scenario/fleet.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "broker/producer.h"
#include "common/logging.h"
#include "common/waiter.h"
#include "telemetry/metrics.h"

namespace pe::scenario {
namespace {

/// Fraction of devices pinned to partition 0 (hot-partition skew); the
/// remainder spread uniformly over the other partitions.
constexpr double kHotDeviceShare = 0.25;
/// Diurnal modulation amplitude, in [0,1).
constexpr double kDiurnalAmplitude = 0.6;
/// Synchronized burst: rate multiplier during the leading `kBurstDuty`
/// fraction of every diurnal period.
constexpr double kBurstFactor = 4.0;
constexpr double kBurstDuty = 0.1;

double seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

FleetGenerator::FleetGenerator(FleetConfig config,
                               std::shared_ptr<broker::Broker> broker)
    : config_(std::move(config)), broker_(std::move(broker)) {}

std::uint32_t FleetGenerator::partition_for(std::size_t device) const {
  const auto n = std::max<std::uint32_t>(1, config_.partitions);
  if (n == 1) return 0;
  const auto hot = static_cast<std::size_t>(
      kHotDeviceShare * static_cast<double>(config_.devices));
  if (device < hot) return 0;  // the skewed head of the fleet
  return 1 + static_cast<std::uint32_t>(device % (n - 1));
}

void FleetGenerator::observe_hot_window() {
  const std::uint64_t hot = broker_->hot_window_bytes();
  std::uint64_t seen = max_hot_.load(std::memory_order_relaxed);
  while (hot > seen &&
         !max_hot_.compare_exchange_weak(seen, hot,
                                         std::memory_order_relaxed)) {
  }
  tel::MetricsRegistry::global()
      .gauge("fleet.hot_window_bytes")
      .set(static_cast<double>(hot));
}

void FleetGenerator::sender_loop(std::size_t device_lo,
                                 std::size_t device_hi) {
  if (device_lo >= device_hi) return;
  // No emulated link: the fleet sits next to its broker.
  broker::Producer producer(broker_, nullptr, "fleet");
  const double tick_s = seconds(config_.tick);
  const double duration_s = seconds(config_.duration);
  const double period_s = std::max(1e-9, seconds(config_.diurnal_period));
  const auto range = static_cast<double>(device_hi - device_lo);

  // One shared payload for the whole run: every record is a view onto it,
  // so generating 100k+ records/s does not allocate per record.
  Bytes body(config_.payload_bytes, static_cast<std::uint8_t>(0xA5));
  const broker::Payload payload(std::move(body));

  double credit = 0.0;
  std::size_t cursor = 0;
  std::vector<std::vector<broker::Record>> batches(
      std::max<std::uint32_t>(1, config_.partitions));

  for (double t = 0.0; t < duration_s; t += tick_s) {
    double rate = config_.mean_rate_hz *
                  (1.0 + kDiurnalAmplitude *
                             std::sin(2.0 * M_PI * t / period_s));
    const double phase = std::fmod(t, period_s) / period_s;
    if (phase < kBurstDuty) rate *= kBurstFactor;
    rate = std::max(0.0, rate);

    credit += range * rate * tick_s;
    auto emit = static_cast<std::uint64_t>(credit);
    credit -= static_cast<double>(emit);

    const std::uint64_t stamp = Clock::now_ns();
    for (std::uint64_t i = 0; i < emit; ++i) {
      const std::size_t device =
          device_lo + (cursor++ % (device_hi - device_lo));
      broker::Record r;
      r.key = "d" + std::to_string(device);
      r.value = payload;
      r.client_timestamp_ns = stamp;
      batches[partition_for(device)].push_back(std::move(r));
    }
    generated_.fetch_add(emit, std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < batches.size(); ++p) {
      if (batches[p].empty()) continue;
      const auto count = static_cast<std::uint64_t>(batches[p].size());
      auto sent = producer.send_batch(config_.topic, p, std::move(batches[p]));
      batches[p].clear();
      if (sent.ok()) {
        acked_.fetch_add(count, std::memory_order_relaxed);
        batches_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dropped_.fetch_add(count, std::memory_order_relaxed);
        PE_LOG_WARN("fleet: dropped batch of "
                    << count << " records on partition " << p << ": "
                    << sent.status().to_string());
      }
    }
    observe_hot_window();
    Clock::sleep_scaled(config_.tick);
  }
  throttled_.fetch_add(producer.stats().throttle_waits,
                       std::memory_order_relaxed);
}

std::uint64_t FleetGenerator::total_end_offsets() const {
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    auto end = broker_->end_offset(config_.topic, p);
    if (end.ok()) total += end.value();
  }
  return total;
}

void FleetGenerator::consumer_loop() {
  const std::uint32_t n = std::max<std::uint32_t>(1, config_.partitions);
  std::vector<std::uint64_t> positions(n, 0);
  const auto drain_deadline =
      Clock::deadline_in(config_.duration + config_.drain_timeout);
  auto& lag_gauge = tel::MetricsRegistry::global().gauge("fleet.consumer_lag");
  const auto waiter = std::make_shared<Waiter>();
  while (true) {
    const std::uint64_t seen = waiter->epoch();
    bool any = false;
    for (std::uint32_t p = 0; p < n; ++p) {
      broker::FetchSpec spec;
      spec.offset = positions[p];
      spec.max_records = 4096;
      spec.max_bytes = 8ull << 20;
      spec.waiter = waiter;
      auto fetched = broker_->fetch(config_.topic, p, spec);
      if (!fetched.ok() || fetched.value().empty()) continue;
      any = true;
      const std::uint64_t now = Clock::now_ns();
      const double scale = Clock::time_scale();
      for (const auto& rec : fetched.value()) {
        // Wall elapsed * time_scale = emulated elapsed (the whole run is
        // sped up uniformly, so latency scales back up the same way).
        const double wall_ns = static_cast<double>(
            now - std::min(now, rec.record.client_timestamp_ns));
        e2e_ms_.push_back(wall_ns * scale / 1e6);
      }
      positions[p] = fetched.value().back().offset + 1;
      consumed_.fetch_add(fetched.value().size(), std::memory_order_relaxed);
    }
    observe_hot_window();
    const std::uint64_t consumed = consumed_.load(std::memory_order_relaxed);
    const std::uint64_t produced = total_end_offsets();
    lag_gauge.set(static_cast<double>(produced - std::min(produced, consumed)));
    if (senders_done_.load(std::memory_order_acquire)) {
      if (consumed >= total_end_offsets()) return;  // fully drained
      if (Clock::now() >= drain_deadline) return;   // give up: final_lag > 0
    }
    // Idle: any append ends the wait; half a tick bounds it (gauges, drain).
    if (!any) waiter->wait(seen, Clock::deadline_in(config_.tick / 2));
  }
}

Result<FleetReport> FleetGenerator::run() {
  if (config_.devices == 0 || config_.sender_threads == 0) {
    return Status::InvalidArgument("fleet needs devices and sender threads");
  }
  if (!broker_->has_topic(config_.topic)) {
    broker::TopicConfig tc;
    tc.partitions = std::max<std::uint32_t>(1, config_.partitions);
    tc.retention = config_.retention;
    if (auto s = broker_->create_topic(config_.topic, tc); !s.ok()) return s;
  }

  Stopwatch sw;
  std::thread consumer([this] { consumer_loop(); });
  std::vector<std::thread> senders;
  const std::size_t per =
      (config_.devices + config_.sender_threads - 1) / config_.sender_threads;
  for (std::size_t i = 0; i < config_.sender_threads; ++i) {
    const std::size_t lo = std::min(config_.devices, i * per);
    const std::size_t hi = std::min(config_.devices, lo + per);
    senders.emplace_back([this, lo, hi] { sender_loop(lo, hi); });
  }
  for (auto& t : senders) t.join();
  senders_done_.store(true, std::memory_order_release);
  consumer.join();

  FleetReport report;
  report.records_generated = generated_.load(std::memory_order_relaxed);
  report.records_acked = acked_.load(std::memory_order_relaxed);
  report.batches_sent = batches_.load(std::memory_order_relaxed);
  report.throttled_sends = throttled_.load(std::memory_order_relaxed);
  report.dropped_records = dropped_.load(std::memory_order_relaxed);
  report.records_consumed = consumed_.load(std::memory_order_relaxed);
  report.max_hot_window_bytes = max_hot_.load(std::memory_order_relaxed);
  const std::uint64_t produced = total_end_offsets();
  report.final_lag =
      produced - std::min(produced, report.records_consumed);
  report.wall_seconds = sw.elapsed_seconds();

  std::sort(e2e_ms_.begin(), e2e_ms_.end());
  report.e2e_p50_ms = percentile(e2e_ms_, 0.50);
  report.e2e_p99_ms = percentile(e2e_ms_, 0.99);
  report.e2e_max_ms = e2e_ms_.empty() ? 0.0 : e2e_ms_.back();
  tel::MetricsRegistry::global()
      .gauge("fleet.e2e_p99_ms")
      .set(report.e2e_p99_ms);
  return report;
}

}  // namespace pe::scenario
