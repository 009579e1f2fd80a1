// The one client retry policy (DESIGN §10, "One retry policy"): every
// transient failure a client can see is retried here, by the same rule,
// whether the client talks to a Broker or a cluster::ClusterEndpoint. A
// throttle waits its retry-after hint; anything else transient backs off
// 1 ms doubling to 64 ms (emulated); a set stop flag ends the wait within
// 5 ms wall with CANCELLED. Without hints a call waits at most 16.063 s
// emulated.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/clock.h"
#include "common/status.h"

namespace pe::broker {

/// Retries after the first attempt: 257 attempts in all.
inline constexpr std::uint32_t kRetryBudget = 256;
inline constexpr Duration kRetryBackoffMin = std::chrono::milliseconds(1);
inline constexpr Duration kRetryBackoffMax = std::chrono::milliseconds(64);

/// What a retried call waited through.
struct RetryTally {
  /// Attempts repeated after a transient failure.
  std::uint64_t retries = 0;
  /// The retries that waited out a broker throttle's retry-after hint.
  std::uint64_t throttle_waits = 0;
};

namespace detail {
inline Status failure_of(const Status& s) { return s; }
template <typename T>
Status failure_of(const Result<T>& r) {
  return r.status();
}
}  // namespace detail

/// Runs `attempt` (returning Status or Result<T>) until it succeeds, fails
/// permanently, or the retry budget runs out; returns the last outcome.
/// A set `stop` flag ends the retries with CANCELLED.
template <typename Attempt>
auto retry_transient(Attempt&& attempt, RetryTally* tally = nullptr,
                     const std::atomic<bool>* stop = nullptr) {
  Duration backoff = kRetryBackoffMin;
  for (std::uint32_t retries = 0;; ++retries) {
    auto outcome = attempt();
    if (outcome.ok()) return outcome;
    const Status failure = detail::failure_of(outcome);
    if (!failure.is_transient() || retries == kRetryBudget) return outcome;
    const Duration hint = failure.retry_after();
    if (tally != nullptr) {
      tally->retries += 1;
      if (hint > Duration::zero()) tally->throttle_waits += 1;
    }
    const Duration pause = hint > Duration::zero() ? hint : backoff;
    if (hint <= Duration::zero()) {
      backoff = std::min(backoff * 2, kRetryBackoffMax);
    }
    const auto stopped = [stop] {
      return stop != nullptr && stop->load(std::memory_order_acquire);
    };
    if (!Clock::sleep_until(Clock::deadline_in(pause), stopped)) {
      return decltype(outcome)(
          Status::Cancelled("stopped while retrying " + failure.to_string()));
    }
  }
}

}  // namespace pe::broker
