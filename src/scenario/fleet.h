// Device-fleet load generator: 100k+ simulated edge devices multiplexed
// onto a handful of sender threads, driving one broker with bursty,
// diurnally-modulated arrivals and hot-partition skew.
//
// The point is NOT one thread per device (the paper's fleets are far past
// that): each sender thread owns a contiguous device range and converts
// the range's aggregate arrival rate into records per tick using
// fractional credits, so a 100k-device fleet costs the same thread count
// as a 100-device one. Arrival rate per device follows
//
//   rate(t) = mean_rate_hz * (1 + kDiurnalAmplitude * sin(2*pi*t/period))
//             * (kBurstFactor   while the leading `kBurstDuty` fraction
//                               of each period — the synchronized burst)
//
// and a `kHotDeviceShare` fraction of devices is pinned to partition 0,
// reproducing the skewed partition heat the admission layer exists for
// (the k* shape constants live in fleet.cpp).
//
// Each sender thread sends through its own broker::Producer, so it has
// its own client id at admission control and honors backpressure by the
// one client retry policy (broker/retry.h): a transient throttle (quota /
// hot-window cap) waits out the broker's retry-after hint and retries.
// Acked records are never lost, which the run report can prove
// (records_consumed == records_acked after drain). A concurrent consumer
// drains every partition, measuring end-to-end latency from each record's
// client timestamp and the fleet's consumer lag.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "broker/broker.h"

namespace pe::scenario {

struct FleetConfig {
  /// Simulated device count (fan-in), multiplexed over sender_threads.
  std::size_t devices = 100'000;
  std::size_t sender_threads = 4;
  std::string topic = "fleet";
  std::uint32_t partitions = 8;
  /// Retention applied at topic creation; set retention.hot_max_bytes on
  /// a durable broker so the hot window can drain under a memory cap.
  broker::RetentionPolicy retention;
  /// Per-device mean emission rate in emulated records/second.
  double mean_rate_hz = 1.0;
  /// Emulated period of the diurnal modulation (and of the burst).
  Duration diurnal_period = std::chrono::seconds(1);
  std::size_t payload_bytes = 64;
  /// Emulated generation time and tick granularity.
  Duration duration = std::chrono::seconds(2);
  Duration tick = std::chrono::milliseconds(10);
  /// Emulated budget for the post-generation consumer drain.
  Duration drain_timeout = std::chrono::seconds(10);
};

struct FleetReport {
  std::uint64_t records_generated = 0;
  /// Records the broker acked (every one must be consumable afterwards).
  std::uint64_t records_acked = 0;
  std::uint64_t batches_sent = 0;
  /// Transient throttle rejections observed by senders (each one waited
  /// out the broker's retry-after hint and retried).
  std::uint64_t throttled_sends = 0;
  /// Records abandoned after the retry budget or a permanent error. Must
  /// be 0 for a healthy run (a drop here is a generator failure).
  std::uint64_t dropped_records = 0;
  std::uint64_t records_consumed = 0;
  /// Producer-to-consumer latency in emulated milliseconds.
  double e2e_p50_ms = 0.0;
  double e2e_p99_ms = 0.0;
  double e2e_max_ms = 0.0;
  /// Largest broker hot-window footprint observed during the run.
  std::uint64_t max_hot_window_bytes = 0;
  /// Unconsumed records remaining when the drain stopped (0 unless the
  /// drain timed out).
  std::uint64_t final_lag = 0;
  double wall_seconds = 0.0;
};

class FleetGenerator {
 public:
  FleetGenerator(FleetConfig config, std::shared_ptr<broker::Broker> broker);

  /// Creates the topic (if absent), runs senders + consumer to
  /// completion, drains, and reports. Synchronous; call once.
  Result<FleetReport> run();

 private:
  void sender_loop(std::size_t device_lo, std::size_t device_hi);
  void consumer_loop();
  std::uint32_t partition_for(std::size_t device) const;
  void observe_hot_window();
  std::uint64_t total_end_offsets() const;

  const FleetConfig config_;
  std::shared_ptr<broker::Broker> broker_;

  std::atomic<std::uint64_t> generated_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> throttled_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> max_hot_{0};
  std::atomic<bool> senders_done_{false};
  /// Written only by the consumer thread, read after join.
  std::vector<double> e2e_ms_;
};

}  // namespace pe::scenario
