// PilotManager: submits pilot descriptions against the fabric and drives
// provisioning asynchronously through the backend plugins.
//
// This is the entry point of the pilot framework (paper Fig. 1, step 1):
//   auto pilot = pm.submit(Flavors::lrz_large());
//   pilot->wait_active();
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "network/fabric.h"
#include "resource/pilot.h"

namespace pe::res {

struct PilotManagerOptions {
  /// Multiplier applied to backend startup delays. 1.0 emulates realistic
  /// provisioning (cloud VM ~20 s); the default keeps interactive runs and
  /// CI fast while preserving relative ordering between backends.
  double startup_delay_factor = 0.01;

  /// When true, a heartbeat monitor watches submitted pilots and replaces
  /// any that reach FAILED (preemption, provisioning error) by
  /// resubmitting their PilotDescription, up to
  /// `max_reprovision_attempts` per pilot lineage with capped exponential
  /// backoff + jitter between attempts.
  bool auto_reprovision = false;
  /// How often the monitor scans pilot states (emulated duration — the
  /// actual sleep is divided by Clock::time_scale()).
  Duration heartbeat_interval = std::chrono::milliseconds(20);
  /// Replacement budget per original pilot (its whole lineage shares it).
  std::uint32_t max_reprovision_attempts = 3;
  /// Base backoff before attempt n sleeps min(cap, base * 2^(n-1)) plus
  /// up to 20% seeded jitter (emulated durations).
  Duration reprovision_backoff = std::chrono::milliseconds(50);
  Duration reprovision_backoff_cap = std::chrono::seconds(2);
};

/// Fired after a failed pilot's replacement reached ACTIVE. Callbacks run
/// on the monitor thread; keep them short and do not call back into the
/// manager's shutdown.
using ReplacementCallback =
    std::function<void(const PilotPtr& failed, const PilotPtr& replacement)>;

class PilotManager {
 public:
  explicit PilotManager(std::shared_ptr<net::Fabric> fabric,
                        PilotManagerOptions options = {});
  ~PilotManager();

  PilotManager(const PilotManager&) = delete;
  PilotManager& operator=(const PilotManager&) = delete;

  /// Validates the description (site must exist on the fabric, backend
  /// must be known) and starts asynchronous provisioning. The returned
  /// pilot is in SUBMITTED state.
  Result<PilotPtr> submit(PilotDescription description);

  /// Blocks until every submitted pilot reached ACTIVE or a terminal
  /// state; returns the first failure (if any).
  Status wait_all_active();

  Result<PilotPtr> pilot(const std::string& id) const;
  std::vector<PilotPtr> pilots() const;

  /// Registers a callback fired when a replacement pilot becomes ACTIVE
  /// (requires options.auto_reprovision). Returns a token for
  /// unsubscribe_replacements.
  std::uint64_t subscribe_replacements(ReplacementCallback cb);
  void unsubscribe_replacements(std::uint64_t token);

  /// Replacements performed so far (successful re-provisions).
  std::uint64_t reprovision_count() const;

  /// Cancels all pilots and joins provisioning threads.
  void shutdown();

  const std::shared_ptr<net::Fabric>& fabric() const { return fabric_; }

 private:
  void provision(PilotPtr pilot);
  void monitor_loop();
  /// Attempts to replace one failed pilot; returns the replacement (ACTIVE)
  /// or null when the lineage budget is exhausted / shutdown started.
  PilotPtr replace_pilot(const PilotPtr& failed);
  bool sleep_scaled_interruptible(Duration emulated);

  std::shared_ptr<net::Fabric> fabric_;
  const PilotManagerOptions options_;
  // Top of the resource domain: the monitor loop reads Pilot state
  // (level 2) while holding this; replacement callbacks run with it
  // released.
  mutable Mutex mutex_;
  std::map<std::string, PilotPtr> pilots_ PE_GUARDED_BY(mutex_);
  std::vector<std::thread> provisioners_ PE_GUARDED_BY(mutex_);
  bool shutdown_ PE_GUARDED_BY(mutex_) = false;

  // --- recovery state (guarded by mutex_) ---
  std::thread monitor_;
  std::set<std::string> handled_failures_ PE_GUARDED_BY(mutex_);
  std::map<std::string, std::string> lineage_
      PE_GUARDED_BY(mutex_);  // pilot id -> lineage root id
  std::map<std::string, std::uint32_t> lineage_attempts_
      PE_GUARDED_BY(mutex_);  // root -> attempts
  std::map<std::uint64_t, ReplacementCallback> replacement_subs_
      PE_GUARDED_BY(mutex_);
  std::uint64_t next_sub_token_ PE_GUARDED_BY(mutex_) = 1;
  std::uint64_t reprovisions_ PE_GUARDED_BY(mutex_) = 0;
};

}  // namespace pe::res
