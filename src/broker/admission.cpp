#include "broker/admission.h"

#include <algorithm>
#include <cmath>

namespace pe::broker {

namespace {

constexpr double kNsPerSec = 1e9;

}  // namespace

// --- TokenBucket -----------------------------------------------------------

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_(std::max(rate_per_sec, 1e-9)),
      burst_(std::max(burst, 1.0)),
      tokens_(burst_) {}

void TokenBucket::refill(std::uint64_t now_ns) {
  if (!primed_) {
    primed_ = true;
    last_ns_ = now_ns;
    return;
  }
  if (now_ns <= last_ns_) return;
  const double elapsed_s =
      static_cast<double>(now_ns - last_ns_) / kNsPerSec;
  last_ns_ = now_ns;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
}

bool TokenBucket::can_acquire(double n, std::uint64_t now_ns,
                              Duration* retry_after) {
  refill(now_ns);
  if (n <= tokens_) return true;
  // Oversized request (bigger than the bucket can ever hold): admissible
  // against a full bucket, overdrawing it into debt.
  if (n > burst_ && tokens_ >= burst_) return true;
  if (retry_after != nullptr) {
    const double deficit = std::min(n, burst_) - tokens_;
    *retry_after = Duration(
        static_cast<std::int64_t>(std::ceil(deficit / rate_ * kNsPerSec)));
  }
  return false;
}

bool TokenBucket::try_acquire(double n, std::uint64_t now_ns,
                              Duration* retry_after) {
  if (!can_acquire(n, now_ns, retry_after)) return false;
  commit(n);
  return true;
}

double TokenBucket::available(std::uint64_t now_ns) {
  refill(now_ns);
  return tokens_;
}

// --- AdmissionController ---------------------------------------------------

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

AdmissionController::ClientState AdmissionController::make_state(
    const ClientQuota& quota) {
  ClientState state;
  if (quota.bytes_per_sec > 0) {
    state.bytes.emplace(quota.bytes_per_sec, quota.bytes_per_sec);
  }
  if (quota.records_per_sec > 0) {
    state.records.emplace(quota.records_per_sec, quota.records_per_sec);
  }
  return state;
}

std::uint64_t AdmissionController::advance_clock(ClientState& state) {
  const std::uint64_t now_wall = Clock::now_ns();
  if (state.last_wall_ns != 0 && now_wall > state.last_wall_ns) {
    const double elapsed_emulated =
        static_cast<double>(now_wall - state.last_wall_ns) *
        Clock::time_scale();
    state.emulated_ns += static_cast<std::uint64_t>(elapsed_emulated);
  }
  state.last_wall_ns = now_wall;
  return state.emulated_ns;
}

AdmissionController::ClientState& AdmissionController::state_for(
    const std::string& client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    it = clients_.emplace(client, make_state(config_.default_quota)).first;
  }
  return it->second;
}

void AdmissionController::set_quota(const std::string& client,
                                    ClientQuota quota) {
  MutexLock lock(mutex_);
  // Replace the buckets only; the client's emulated clock survives.
  ClientState fresh = make_state(quota);
  ClientState& state = state_for(client);
  state.bytes = std::move(fresh.bytes);
  state.records = std::move(fresh.records);
}

Status AdmissionController::admit(const std::string& client,
                                  std::size_t records, std::uint64_t bytes) {
  if (client.empty()) return Status::Ok();  // internal: not quota-gated
  MutexLock lock(mutex_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (config_.default_quota.unlimited()) return Status::Ok();
  }
  ClientState& state = state_for(client);
  if (!state.bytes && !state.records) return Status::Ok();
  const std::uint64_t now = advance_clock(state);

  // Check both buckets before charging either: a refusal must not leak
  // tokens out of the dimension that would have admitted.
  Duration hint = Duration::zero();
  Duration d;
  bool ok = true;
  if (state.bytes &&
      !state.bytes->can_acquire(static_cast<double>(bytes), now, &d)) {
    ok = false;
    hint = std::max(hint, d);
  }
  if (state.records &&
      !state.records->can_acquire(static_cast<double>(records), now, &d)) {
    ok = false;
    hint = std::max(hint, d);
  }
  if (!ok) {
    return Status::Throttled(
        "client '" + client + "' over quota",
        std::max(hint, kMinRetryAfter));
  }
  if (state.bytes) state.bytes->commit(static_cast<double>(bytes));
  if (state.records) state.records->commit(static_cast<double>(records));
  return Status::Ok();
}

Status AdmissionController::reserve_hot(std::uint64_t bytes) {
  const std::uint64_t cap = config_.max_hot_window_bytes;
  if (cap == 0 || bytes == 0) return Status::Ok();
  const auto want = static_cast<std::int64_t>(bytes);
  // Reservation protocol: add our bytes to the in-flight counter first,
  // then test. `prior` (the RMW's return value) already contains every
  // concurrent reservation that won the race, so for any interleaving the
  // k-th successful reserver proves hot + sum(first k reservations) <=
  // cap — admitted appends can never overshoot the cap together.
  const std::int64_t prior =
      inflight_.fetch_add(want, std::memory_order_acq_rel);
  const std::int64_t hot = hot_bytes_->load(std::memory_order_acquire);
  if (hot + prior + want > static_cast<std::int64_t>(cap)) {
    // Progress guarantee: a batch bigger than the whole cap is admitted
    // when nothing else occupies the broker (it will be trimmed or
    // drained like any other data).
    if (!(hot == 0 && prior == 0 &&
          bytes > cap)) {
      inflight_.fetch_sub(want, std::memory_order_acq_rel);
      return Status::Throttled(
          "hot-window cap: " + std::to_string(hot + prior) + "+" +
              std::to_string(bytes) + " bytes would exceed " +
              std::to_string(cap),
          kMinRetryAfter);
    }
  }
  return Status::Ok();
}

void AdmissionController::release_hot(std::uint64_t bytes) {
  if (config_.max_hot_window_bytes == 0 || bytes == 0) return;
  inflight_.fetch_sub(static_cast<std::int64_t>(bytes),
                      std::memory_order_acq_rel);
}

}  // namespace pe::broker
