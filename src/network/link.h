// A directed network link between two sites.
//
// Models one-way propagation latency (with jitter) plus a shared,
// serialized transmission channel (bandwidth). Concurrent transfers queue
// on the channel exactly like packets on a saturated WAN uplink: each
// transfer reserves the next free slot of channel time, then the calling
// thread sleeps until its transmission plus propagation completes.
//
// All sleeps go through Clock::sleep_scaled so the global time_scale can
// accelerate emulation; reported TransferResult durations are in emulated
// (unscaled) time.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "network/site.h"

namespace pe::net {

/// Static description of a link's quality.
struct LinkSpec {
  SiteId from;
  SiteId to;
  /// One-way propagation latency bounds; actual latency per message is
  /// uniform in [min,max] (paper: intercontinental RTT 140-160 ms).
  Duration latency_min = std::chrono::microseconds(100);
  Duration latency_max = std::chrono::microseconds(200);
  /// Bandwidth bounds in bits/s; fluctuates per transfer
  /// (paper: 60-100 Mbit/s via iPerf).
  double bandwidth_min_bps = 10e9;
  double bandwidth_max_bps = 10e9;

  Duration mean_latency() const { return (latency_min + latency_max) / 2; }
  double mean_bandwidth_bps() const {
    return (bandwidth_min_bps + bandwidth_max_bps) / 2.0;
  }
};

/// Outcome of one transfer, in emulated time.
struct TransferResult {
  Duration queue_delay{};     // waiting for the shared channel
  Duration transmit_time{};   // size / bandwidth
  Duration propagation{};     // latency sample
  std::uint64_t bytes = 0;

  Duration total() const { return queue_delay + transmit_time + propagation; }
};

/// Cumulative link statistics.
struct LinkStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  Duration total_queue_delay{};
  Duration total_transmit_time{};
};

/// Runtime fault applied on top of a link's static spec (chaos injection).
/// Degradation multiplies sampled latency and divides sampled bandwidth;
/// a partitioned link refuses transfers entirely.
struct LinkFault {
  double latency_factor = 1.0;    // >= 1 slows the link down
  double bandwidth_factor = 1.0;  // <= 1 shrinks the pipe
  bool partitioned = false;

  bool degrades() const {
    return latency_factor != 1.0 || bandwidth_factor != 1.0 || partitioned;
  }
};

class Link {
 public:
  explicit Link(LinkSpec spec, std::uint64_t seed = 7);

  /// Blocks the caller for the emulated duration of moving `bytes` across
  /// this link and returns the per-component timing breakdown.
  TransferResult transfer(std::uint64_t bytes);

  /// Applies/replaces the runtime fault (chaos injection).
  void set_fault(LinkFault fault);
  /// A partitioned link refuses transfers (Fabric surfaces UNAVAILABLE).
  bool partitioned() const;

  const LinkSpec& spec() const { return spec_; }
  LinkStats stats() const;

 private:
  const LinkSpec spec_;
  mutable Mutex mutex_;
  Rng rng_ PE_GUARDED_BY(mutex_);
  // Next instant (real/scaled clock) at which the shared channel is free.
  TimePoint channel_free_at_ PE_GUARDED_BY(mutex_);
  LinkStats stats_ PE_GUARDED_BY(mutex_);
  LinkFault fault_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::net
