#include "resource/pilot_manager.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/metrics.h"

namespace pe::res {

namespace {

/// Seed of the re-provisioning backoff jitter (mixed with the pilot's
/// lineage root and the attempt number).
constexpr std::uint64_t kReprovisionJitterSeed = 42;

}  // namespace

PilotManager::PilotManager(std::shared_ptr<net::Fabric> fabric,
                           PilotManagerOptions options)
    : fabric_(std::move(fabric)), options_(options) {
  if (options_.auto_reprovision) {
    monitor_ = std::thread([this] { monitor_loop(); });
  }
}

PilotManager::~PilotManager() { shutdown(); }

Result<PilotPtr> PilotManager::submit(PilotDescription description) {
  if (!fabric_->has_site(description.site)) {
    return Status::NotFound("unknown site '" + description.site +
                            "' — register it on the fabric first");
  }
  if (make_backend(description.backend) == nullptr) {
    return Status::InvalidArgument("unknown backend");
  }
  auto pilot = std::make_shared<Pilot>(next_pilot_id(), std::move(description));
  pilot->mark_submitted();
  {
    MutexLock lock(mutex_);
    if (shutdown_) return Status::FailedPrecondition("manager shut down");
    pilots_[pilot->id()] = pilot;
    provisioners_.emplace_back([this, pilot] { provision(pilot); });
  }
  return pilot;
}

void PilotManager::provision(PilotPtr pilot) {
  auto backend = make_backend(pilot->description().backend);
  auto outcome = backend->provision(pilot->description());
  if (!outcome.ok()) {
    pilot->mark_failed(outcome.status());
    return;
  }
  // Sleep out the provisioning delay in slices so cancellation (or
  // manager shutdown) interrupts promptly instead of blocking for the
  // whole emulated boot time.
  const auto delay = std::chrono::duration_cast<Duration>(
      outcome.value().startup_delay * options_.startup_delay_factor);
  const bool canceled = !Clock::sleep_until(Clock::deadline_in(delay), [&] {
    return pilot->state() != PilotState::kSubmitted;
  });
  if (canceled) return;

  std::shared_ptr<exec::Cluster> cluster;
  std::shared_ptr<broker::Broker> broker;
  if (pilot->description().backend == Backend::kBrokerService) {
    broker = std::make_shared<broker::Broker>(pilot->site(),
                                              pilot->id() + "-broker");
  } else {
    cluster = std::make_shared<exec::Cluster>(
        pilot->site(), outcome.value().cores, outcome.value().memory_gb,
        pilot->id());
  }
  pilot->mark_active(outcome.value(), std::move(cluster), std::move(broker));
}

Status PilotManager::wait_all_active() {
  std::vector<PilotPtr> snapshot = pilots();
  Status first_failure = Status::Ok();
  for (const auto& p : snapshot) {
    if (auto s = p->wait_active(); !s.ok() && first_failure.ok()) {
      first_failure = s;
    }
  }
  return first_failure;
}

std::uint64_t PilotManager::subscribe_replacements(ReplacementCallback cb) {
  MutexLock lock(mutex_);
  const std::uint64_t token = next_sub_token_++;
  replacement_subs_[token] = std::move(cb);
  return token;
}

void PilotManager::unsubscribe_replacements(std::uint64_t token) {
  MutexLock lock(mutex_);
  replacement_subs_.erase(token);
}

std::uint64_t PilotManager::reprovision_count() const {
  MutexLock lock(mutex_);
  return reprovisions_;
}

bool PilotManager::sleep_scaled_interruptible(Duration emulated) {
  return Clock::sleep_until(Clock::deadline_in(emulated), [this] {
    MutexLock lock(mutex_);
    return shutdown_;
  });
}

void PilotManager::monitor_loop() {
  while (sleep_scaled_interruptible(options_.heartbeat_interval)) {
    std::vector<PilotPtr> failed;
    {
      MutexLock lock(mutex_);
      for (const auto& [id, p] : pilots_) {
        if (p->state() == PilotState::kFailed &&
            handled_failures_.count(id) == 0) {
          handled_failures_.insert(id);
          failed.push_back(p);
        }
      }
    }
    for (const auto& p : failed) {
      tel::MetricsRegistry::global().counter("recovery.failures_detected")
          .add();
      const auto detect_time = Clock::now();
      PilotPtr replacement = replace_pilot(p);
      if (!replacement) continue;
      const double mttr_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    detect_time)
              .count() *
          Clock::time_scale();
      tel::MetricsRegistry::global().histogram("recovery.pilot_mttr_ms")
          .record(mttr_ms);
      tel::MetricsRegistry::global().counter("recovery.pilots_replaced")
          .add();
      std::vector<ReplacementCallback> subs;
      {
        MutexLock lock(mutex_);
        reprovisions_ += 1;
        subs.reserve(replacement_subs_.size());
        for (const auto& [_, cb] : replacement_subs_) subs.push_back(cb);
      }
      for (const auto& cb : subs) cb(p, replacement);
    }
  }
}

PilotPtr PilotManager::replace_pilot(const PilotPtr& failed) {
  std::string root;
  std::uint32_t attempt = 0;
  {
    MutexLock lock(mutex_);
    if (shutdown_) return nullptr;
    auto lit = lineage_.find(failed->id());
    root = (lit == lineage_.end()) ? failed->id() : lit->second;
    attempt = ++lineage_attempts_[root];
    if (attempt > options_.max_reprovision_attempts) {
      PE_LOG_WARN("pilot " << failed->id() << " (lineage " << root
                           << ") exhausted " <<
                           options_.max_reprovision_attempts
                           << " replacement attempts; giving up");
      return nullptr;
    }
  }
  // Capped exponential backoff with seeded jitter: attempt n sleeps
  // min(cap, base * 2^(n-1)) * (1 + U[0, 0.2)).
  const double factor = std::pow(2.0, static_cast<double>(attempt - 1));
  auto backoff = std::chrono::duration_cast<Duration>(
      options_.reprovision_backoff * factor);
  backoff = std::min(backoff, std::chrono::duration_cast<Duration>(
                                  options_.reprovision_backoff_cap));
  Rng jitter_rng(kReprovisionJitterSeed +
                 std::hash<std::string>{}(root) + attempt);
  backoff = std::chrono::duration_cast<Duration>(
      backoff * (1.0 + jitter_rng.uniform(0.0, 0.2)));
  if (!sleep_scaled_interruptible(backoff)) return nullptr;

  auto resubmitted = submit(failed->description());
  if (!resubmitted.ok()) {
    PE_LOG_WARN("re-provisioning for failed pilot " << failed->id()
                                                    << " rejected: "
                                                    << resubmitted.status()
                                                           .to_string());
    return nullptr;
  }
  PilotPtr replacement = resubmitted.value();
  {
    MutexLock lock(mutex_);
    lineage_[replacement->id()] = root;
  }
  PE_LOG_INFO("re-provisioning pilot " << failed->id() << " as "
                                       << replacement->id() << " (attempt "
                                       << attempt << "/"
                                       << options_.max_reprovision_attempts
                                       << ")");
  // Wait for the replacement to leave SUBMITTED, in slices so shutdown
  // interrupts. A replacement that itself FAILs is picked up by the next
  // monitor scan and charged to the same lineage budget.
  while (true) {
    {
      MutexLock lock(mutex_);
      if (shutdown_) return nullptr;
    }
    const Status s =
        replacement->wait_active_for(std::chrono::milliseconds(10));
    if (s.ok()) return replacement;
    if (s.code() != StatusCode::kTimeout) return nullptr;
  }
}

Result<PilotPtr> PilotManager::pilot(const std::string& id) const {
  MutexLock lock(mutex_);
  auto it = pilots_.find(id);
  if (it == pilots_.end()) return Status::NotFound("unknown pilot " + id);
  return it->second;
}

std::vector<PilotPtr> PilotManager::pilots() const {
  MutexLock lock(mutex_);
  std::vector<PilotPtr> out;
  out.reserve(pilots_.size());
  for (const auto& [_, p] : pilots_) out.push_back(p);
  return out;
}

void PilotManager::shutdown() {
  std::vector<std::thread> provisioners;
  std::vector<PilotPtr> pilots_snapshot;
  {
    MutexLock lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    provisioners = std::move(provisioners_);
    for (const auto& [_, p] : pilots_) pilots_snapshot.push_back(p);
  }
  // Join the monitor first so no new replacements are submitted while we
  // cancel; its sleep slices observe shutdown_ promptly.
  if (monitor_.joinable()) monitor_.join();
  for (const auto& p : pilots_snapshot) p->cancel();
  for (auto& t : provisioners) {
    if (t.joinable()) t.join();
  }
}

}  // namespace pe::res
