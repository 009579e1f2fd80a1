// The one client retry policy. Every transient failure a client can see
// (a throttle, NOT_LEADER, UNAVAILABLE, a quorum TIMEOUT) is retried here,
// by the same rule, whether the client talks to a Broker or a
// cluster::ClusterEndpoint:
//
//   - only Status::is_transient() failures are retried; anything else
//     returns at once;
//   - a failure carrying a retry-after hint (a broker throttle) waits
//     exactly that hint, so a herd of producers cannot hammer an
//     over-budget broker faster than its bucket refills;
//   - any other transient failure backs off exponentially, 1 ms doubling
//     to 64 ms;
//   - after kRetryBudget retries the last failure is returned.
//
// All waits are emulated (Clock::sleep_scaled). Without hints the longest
// a call can wait is 1+2+...+32 + 250 x 64 ms = 16.063 s emulated.
#pragma once

#include <algorithm>
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
template <typename Attempt>
auto retry_transient(Attempt&& attempt, RetryTally* tally = nullptr) {
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
    if (hint > Duration::zero()) {
      Clock::sleep_scaled(hint);
    } else {
      Clock::sleep_scaled(backoff);
      backoff = std::min(backoff * 2, kRetryBackoffMax);
    }
  }
}

}  // namespace pe::broker
