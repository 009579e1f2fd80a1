// Pilot: a placeholder job owning resources on one site.
//
// Lifecycle (paper [10], P* model): NEW -> SUBMITTED -> ACTIVE -> DONE /
// FAILED / CANCELED. Once ACTIVE, a compute pilot exposes a Cluster (its
// managed task executor, the Dask analogue) and a broker pilot exposes a
// Broker instance. Applications never talk to raw resources — only to
// pilots.
#pragma once

#include <memory>
#include <string>

#include "broker/broker.h"
#include "common/mutex.h"
#include "common/status.h"
#include "resource/backend.h"
#include "resource/pilot_description.h"
#include "taskexec/cluster.h"

namespace pe::res {

enum class PilotState {
  kNew,
  kSubmitted,
  kActive,
  kDone,
  kFailed,
  kCanceled,
};

constexpr const char* to_string(PilotState s) {
  switch (s) {
    case PilotState::kNew: return "new";
    case PilotState::kSubmitted: return "submitted";
    case PilotState::kActive: return "active";
    case PilotState::kDone: return "done";
    case PilotState::kFailed: return "failed";
    case PilotState::kCanceled: return "canceled";
  }
  return "?";
}

class Pilot {
 public:
  Pilot(std::string id, PilotDescription description);
  ~Pilot();

  Pilot(const Pilot&) = delete;
  Pilot& operator=(const Pilot&) = delete;

  const std::string& id() const { return id_; }
  const PilotDescription& description() const { return description_; }
  const net::SiteId& site() const { return description_.site; }

  PilotState state() const;

  /// Blocks until the pilot leaves SUBMITTED (ACTIVE or terminal); returns
  /// OK when ACTIVE was reached.
  Status wait_active() const;

  /// Blocks up to `timeout`; TIMEOUT status if still provisioning.
  Status wait_active_for(Duration timeout) const;

  /// The pilot-managed task executor. Null until ACTIVE; always null for
  /// broker pilots.
  std::shared_ptr<exec::Cluster> cluster() const;

  /// The pilot-managed broker. Null unless this is a BrokerService pilot.
  std::shared_ptr<broker::Broker> broker() const;

  /// Granted capacity (may differ from the request if the backend clamps).
  std::uint32_t granted_cores() const;
  double granted_memory_gb() const;

  /// Cancels the pilot: tears down its cluster/broker, state -> CANCELED.
  void cancel();

  /// Failure injection: an ACTIVE pilot abruptly loses its resources
  /// (spot VM preemption, device power loss). Cluster/broker are torn
  /// down, state -> FAILED; running tasks get their stop flags and end
  /// Unavailable. Applications observe this exactly like a real loss.
  Status inject_failure(std::string reason = "injected failure");

  // --- used by PilotManager during provisioning ---
  void mark_submitted();
  void mark_active(const ProvisionOutcome& outcome,
                   std::shared_ptr<exec::Cluster> cluster,
                   std::shared_ptr<broker::Broker> broker);
  void mark_failed(Status reason);
  Status failure_reason() const;

 private:
  const std::string id_;
  const PilotDescription description_;

  // Level 2 in the resource domain: PilotManager's monitor loop reads
  // pilot state while holding the manager lock (level 1); pilots never
  // call back into the manager.
  mutable Mutex mutex_;
  mutable CondVar state_cv_;
  PilotState state_ PE_GUARDED_BY(mutex_) = PilotState::kNew;
  ProvisionOutcome granted_ PE_GUARDED_BY(mutex_);
  Status failure_ PE_GUARDED_BY(mutex_);
  std::shared_ptr<exec::Cluster> cluster_ PE_GUARDED_BY(mutex_);
  std::shared_ptr<broker::Broker> broker_ PE_GUARDED_BY(mutex_);
};

using PilotPtr = std::shared_ptr<Pilot>;

}  // namespace pe::res
