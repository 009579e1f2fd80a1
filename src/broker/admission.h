// Edge admission control: per-client token-bucket produce quotas and a
// broker-wide bound on hot-window memory.
//
// Pilot-Edge's ingress story is a constrained broker fed by a huge device
// fleet. Two mechanisms keep it alive under bursty traffic:
//
//  - Per-client quotas (bytes/s and records/s, token buckets one second of
//    quota deep). A client over its quota is *throttled*,
//    not dropped: the produce fails with Status::Throttled — a
//    RESOURCE_EXHAUSTED carrying a retry-after hint, which is transient,
//    so every retrying client (Producer by broker/retry.h,
//    RetryPolicy users) waits out the hint and succeeds once the bucket
//    refills. Zero acked-record loss.
//
//  - A hot-window byte cap across the whole broker: the sum of all
//    partitions' in-memory deques is never allowed past the cap. Produce
//    reserves its bytes before appending (a reservation counter makes the
//    bound race-free under concurrent producers), and a reservation that
//    would overshoot throttles the producer instead of OOMing the broker
//    — end-to-end backpressure. Durable partitions additionally trim
//    their hot deque to RetentionPolicy::hot_max_bytes (cold fetches are
//    served from disk), which is what keeps a capped broker draining in
//    steady state.
//
// All rates and hints are in *emulated* time (Clock::time_scale), like
// every other duration in the system.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"

namespace pe::broker {

/// Token bucket in the emulated-time domain. Not thread-safe on its own:
/// the AdmissionController serializes access (and the tests drive it
/// directly with synthetic timestamps).
class TokenBucket {
 public:
  /// `rate_per_sec` tokens accrue per emulated second, up to `burst`
  /// tokens of depth. The bucket starts full.
  TokenBucket(double rate_per_sec, double burst);

  /// Takes `n` tokens if the bucket allows it at emulated time `now_ns`.
  /// On refusal returns false and sets `*retry_after` (when non-null) to
  /// the emulated duration after which the acquire would succeed.
  ///
  /// A request larger than the whole burst can never accumulate enough
  /// tokens; it is allowed to overdraw a *full* bucket (tokens go
  /// negative, stalling subsequent acquires until the debt refills) so
  /// oversized batches make progress while the long-run rate stays
  /// bounded.
  bool try_acquire(double n, std::uint64_t now_ns,
                   Duration* retry_after = nullptr);

  /// Like try_acquire but without consuming: refills to `now_ns` and
  /// reports admissibility. commit() then takes the tokens; the caller
  /// must not let time pass (or interleave other acquires) in between.
  bool can_acquire(double n, std::uint64_t now_ns,
                   Duration* retry_after = nullptr);
  void commit(double n) { tokens_ -= n; }

  double available(std::uint64_t now_ns);

 private:
  void refill(std::uint64_t now_ns);

  double rate_;
  double burst_;
  double tokens_;
  std::uint64_t last_ns_ = 0;
  bool primed_ = false;
};

/// Per-client rate limits. Zero means unlimited on that dimension. Each
/// bucket holds one second of its rate.
struct ClientQuota {
  double bytes_per_sec = 0;
  double records_per_sec = 0;

  bool unlimited() const { return bytes_per_sec <= 0 && records_per_sec <= 0; }
};

/// Broker-wide admission configuration.
struct AdmissionConfig {
  /// Applied to every *identified* client (non-empty client id) without
  /// an explicit set_quota entry. Internal produces (dead-letter routing,
  /// replication) carry no client id and bypass quotas — they must drain
  /// — but never the hot-window cap accounting.
  ClientQuota default_quota;
  /// Cap on the sum of all partitions' hot-window (in-memory deque)
  /// bytes. 0 = unbounded. When a produce would overshoot, it is
  /// throttled (after one retention pass) instead of appended.
  std::uint64_t max_hot_window_bytes = 0;
};

/// Floor for retry-after hints (emulated); also the hint attached to
/// hot-window throttles, which have no natural refill rate.
inline constexpr Duration kMinRetryAfter = std::chrono::microseconds(200);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Installs (or replaces) an explicit quota for a client id.
  void set_quota(const std::string& client, ClientQuota quota);

  /// Quota gate. Consumes from the client's byte and record buckets
  /// atomically (neither is charged when either refuses). Empty client
  /// ids are exempt. Refusals are Status::Throttled with a retry-after
  /// hint, i.e. transient.
  Status admit(const std::string& client, std::size_t records,
               std::uint64_t bytes);

  /// Hot-window reservation: returns OK when `bytes` fit under the cap
  /// given the current hot bytes plus all in-flight reservations — the
  /// reservation makes the cap race-free: concurrent producers each see
  /// the others' reserved bytes, so the sum of admitted appends can never
  /// overshoot. The caller MUST call release_hot(bytes) after the append
  /// lands (the appended bytes are then carried by the hot counter
  /// itself). A batch larger than the whole cap is admitted only when the
  /// broker is otherwise empty, so it can still make progress.
  Status reserve_hot(std::uint64_t bytes);
  void release_hot(std::uint64_t bytes);

  /// The counter partition logs mirror their deque bytes into.
  std::shared_ptr<std::atomic<std::int64_t>> hot_bytes_counter() const {
    return hot_bytes_;
  }
  std::uint64_t hot_window_bytes() const {
    const auto v = hot_bytes_->load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }

 private:
  struct ClientState {
    std::optional<TokenBucket> bytes;
    std::optional<TokenBucket> records;
    /// Emulated clock for this client's buckets, advanced by wall elapsed
    /// time x Clock::time_scale at each admit.
    std::uint64_t emulated_ns = 0;
    std::uint64_t last_wall_ns = 0;
  };

  static ClientState make_state(const ClientQuota& quota);
  /// Finds or creates the state for a client, seeding its buckets from
  /// the default quota.
  ClientState& state_for(const std::string& client) PE_REQUIRES(mutex_);
  /// Advances the client's emulated clock to now.
  static std::uint64_t advance_clock(ClientState& state);

  const AdmissionConfig config_;
  // Leaf-ish lock in the broker domain: held only around bucket math,
  // never while a partition or registry lock is taken.
  mutable Mutex mutex_;
  std::map<std::string, ClientState> clients_ PE_GUARDED_BY(mutex_);
  std::shared_ptr<std::atomic<std::int64_t>> hot_bytes_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
  std::atomic<std::int64_t> inflight_{0};
};

}  // namespace pe::broker
