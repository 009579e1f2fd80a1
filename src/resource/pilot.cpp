#include "resource/pilot.h"

#include "common/logging.h"

namespace pe::res {

Pilot::Pilot(std::string id, PilotDescription description)
    : id_(std::move(id)), description_(std::move(description)) {}

Pilot::~Pilot() { cancel(); }

PilotState Pilot::state() const {
  MutexLock lock(mutex_);
  return state_;
}

Status Pilot::wait_active() const {
  UniqueLock lock(mutex_);
  state_cv_.wait(lock, [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
    return state_ != PilotState::kNew && state_ != PilotState::kSubmitted;
  });
  if (state_ == PilotState::kActive) return Status::Ok();
  if (state_ == PilotState::kFailed) return failure_;
  return Status::Cancelled("pilot " + id_ + " canceled");
}

Status Pilot::wait_active_for(Duration timeout) const {
  // Same inconsistency as ParameterServer::watch had: pilot startup
  // delays are emulated (scaled) sleeps, so the provisioning deadline
  // must scale identically or fast experiments time out spuriously.
  UniqueLock lock(mutex_);
  const bool done = state_cv_.wait_until(
      lock, Clock::deadline_in(timeout), [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
        return state_ != PilotState::kNew && state_ != PilotState::kSubmitted;
      });
  if (!done) return Status::Timeout("pilot " + id_ + " still provisioning");
  if (state_ == PilotState::kActive) return Status::Ok();
  if (state_ == PilotState::kFailed) return failure_;
  return Status::Cancelled("pilot " + id_ + " canceled");
}

std::shared_ptr<exec::Cluster> Pilot::cluster() const {
  MutexLock lock(mutex_);
  return cluster_;
}

std::shared_ptr<broker::Broker> Pilot::broker() const {
  MutexLock lock(mutex_);
  return broker_;
}

std::uint32_t Pilot::granted_cores() const {
  MutexLock lock(mutex_);
  return granted_.cores;
}

double Pilot::granted_memory_gb() const {
  MutexLock lock(mutex_);
  return granted_.memory_gb;
}

void Pilot::cancel() {
  std::shared_ptr<exec::Cluster> cluster;
  {
    MutexLock lock(mutex_);
    if (state_ == PilotState::kDone || state_ == PilotState::kFailed ||
        state_ == PilotState::kCanceled) {
      return;
    }
    state_ = PilotState::kCanceled;
    cluster = std::move(cluster_);
    broker_.reset();
  }
  state_cv_.notify_all();
  if (cluster) cluster->shutdown();
  PE_LOG_INFO("pilot " << id_ << " canceled");
}

Status Pilot::inject_failure(std::string reason) {
  std::shared_ptr<exec::Cluster> cluster;
  {
    MutexLock lock(mutex_);
    if (state_ != PilotState::kActive) {
      return Status::FailedPrecondition("pilot " + id_ + " not active");
    }
    state_ = PilotState::kFailed;
    failure_ = Status::Unavailable("pilot " + id_ + " lost: " + reason);
    cluster = std::move(cluster_);
    broker_.reset();
  }
  state_cv_.notify_all();
  if (cluster) cluster->shutdown();
  PE_LOG_WARN("pilot " << id_ << " failure injected: " << reason);
  return Status::Ok();
}

void Pilot::mark_submitted() {
  {
    MutexLock lock(mutex_);
    if (state_ != PilotState::kNew) return;
    state_ = PilotState::kSubmitted;
  }
  state_cv_.notify_all();
}

void Pilot::mark_active(const ProvisionOutcome& outcome,
                        std::shared_ptr<exec::Cluster> cluster,
                        std::shared_ptr<broker::Broker> broker) {
  {
    MutexLock lock(mutex_);
    if (state_ != PilotState::kSubmitted) return;  // canceled meanwhile
    state_ = PilotState::kActive;
    granted_ = outcome;
    cluster_ = std::move(cluster);
    broker_ = std::move(broker);
  }
  state_cv_.notify_all();
  PE_LOG_INFO("pilot " << id_ << " active: " << description_.to_string());
}

void Pilot::mark_failed(Status reason) {
  {
    MutexLock lock(mutex_);
    if (state_ != PilotState::kSubmitted && state_ != PilotState::kNew) {
      return;
    }
    state_ = PilotState::kFailed;
    failure_ = std::move(reason);
  }
  state_cv_.notify_all();
  PE_LOG_WARN("pilot " << id_ << " failed: " << failure_.to_string());
}

Status Pilot::failure_reason() const {
  MutexLock lock(mutex_);
  return failure_;
}

}  // namespace pe::res
