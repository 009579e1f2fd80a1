#include "network/link.h"

#include <algorithm>

namespace pe::net {

Link::Link(LinkSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed), channel_free_at_(Clock::now()) {}

TransferResult Link::transfer(std::uint64_t bytes) {
  TransferResult result;
  result.bytes = bytes;

  const double scale = Clock::time_scale();
  TimePoint complete_at;
  {
    MutexLock lock(mutex_);

    // Sample per-transfer link quality, degraded by any active fault.
    const double bw = rng_.uniform(spec_.bandwidth_min_bps,
                                   spec_.bandwidth_max_bps) *
                      std::max(fault_.bandwidth_factor, 1e-9);
    const auto lat_ns = static_cast<std::int64_t>(
        rng_.uniform(static_cast<double>(spec_.latency_min.count()),
                     static_cast<double>(spec_.latency_max.count())) *
        fault_.latency_factor);
    result.propagation = Duration(lat_ns);
    const double tx_seconds = static_cast<double>(bytes) * 8.0 / bw;
    result.transmit_time = std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(tx_seconds));

    // Reserve channel time: serialized shared medium. Bookkeeping happens
    // in scaled (real) clock time so emulation stays consistent when
    // time_scale != 1.
    const auto tx_scaled =
        std::chrono::duration_cast<Duration>(result.transmit_time / scale);
    const auto now = Clock::now();
    const TimePoint start = std::max(now, channel_free_at_);
    result.queue_delay = std::chrono::duration_cast<Duration>(
        (start - now) * scale);
    channel_free_at_ = start + tx_scaled;

    const auto prop_scaled =
        std::chrono::duration_cast<Duration>(result.propagation / scale);
    complete_at = channel_free_at_ + prop_scaled;

    stats_.transfers += 1;
    stats_.bytes += bytes;
    stats_.total_queue_delay += result.queue_delay;
    stats_.total_transmit_time += result.transmit_time;
  }

  // Block the caller until the message "arrives" (outside the lock, so
  // other transfers can queue behind us concurrently).
  const auto now = Clock::now();
  if (complete_at > now) {
    Clock::sleep_exact(complete_at - now);
  }
  return result;
}

void Link::set_fault(LinkFault fault) {
  MutexLock lock(mutex_);
  fault_ = fault;
}

bool Link::partitioned() const {
  MutexLock lock(mutex_);
  return fault_.partitioned;
}

LinkStats Link::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace pe::net
