#include "fault/chaos_engine.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/metrics.h"

namespace pe::fault {
namespace {

FaultKind restore_kind(FaultKind k) {
  switch (k) {
    case FaultKind::kDegradeLink:
    case FaultKind::kPartitionLink:
      return FaultKind::kRestoreLink;
    case FaultKind::kDropBrokerPartition:
      return FaultKind::kRestoreBrokerPartition;
    case FaultKind::kCrashBroker:
    case FaultKind::kIsolateBroker:
      return FaultKind::kRestoreBroker;
    default:
      return k;
  }
}

bool has_restore(FaultKind k) {
  return k == FaultKind::kDegradeLink || k == FaultKind::kPartitionLink ||
         k == FaultKind::kDropBrokerPartition ||
         k == FaultKind::kCrashBroker || k == FaultKind::kIsolateBroker;
}

}  // namespace

ChaosEngine::ChaosEngine(FaultPlan plan, std::uint64_t seed) : seed_(seed) {
  // Resolve the timeline up front, deterministically: one seeded Rng,
  // jitter drawn per event in plan order (independent of sort order), so
  // the same (plan, seed) pair always yields the same schedule.
  Rng rng(seed_);
  timeline_.reserve(plan.events.size() * 2);
  for (const FaultEvent& e : plan.events) {
    FaultEvent resolved = e;
    if (plan.jitter_fraction > 0.0) {
      const double f = rng.uniform(-plan.jitter_fraction,
                                   plan.jitter_fraction);
      resolved.at = std::chrono::duration_cast<Duration>(
          resolved.at * (1.0 + f));
      if (resolved.at < Duration::zero()) resolved.at = Duration::zero();
    }
    if (resolved.duration > Duration::zero() && has_restore(resolved.kind)) {
      FaultEvent restore = resolved;
      restore.kind = restore_kind(resolved.kind);
      restore.at = resolved.at + resolved.duration;
      restore.duration = Duration::zero();
      timeline_.push_back(resolved);
      timeline_.push_back(std::move(restore));
    } else {
      timeline_.push_back(resolved);
    }
  }
  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

ChaosEngine::~ChaosEngine() { stop(); }

ChaosEngine& ChaosEngine::set_pilot_manager(res::PilotManager* manager) {
  pilot_manager_ = manager;
  return *this;
}
ChaosEngine& ChaosEngine::set_fabric(std::shared_ptr<net::Fabric> fabric) {
  fabric_ = std::move(fabric);
  return *this;
}
ChaosEngine& ChaosEngine::set_broker(std::shared_ptr<broker::Broker> broker) {
  broker_ = std::move(broker);
  return *this;
}
ChaosEngine& ChaosEngine::set_broker_cluster(
    std::shared_ptr<cluster::BrokerCluster> cluster) {
  broker_cluster_ = std::move(cluster);
  return *this;
}
ChaosEngine& ChaosEngine::add_cluster(std::shared_ptr<exec::Cluster> cluster) {
  clusters_.push_back(std::move(cluster));
  return *this;
}

Status ChaosEngine::start() {
  MutexLock lock(mutex_);
  if (started_) return Status::FailedPrecondition("chaos engine started");
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { run(); });
  return Status::Ok();
}

void ChaosEngine::stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  join();
}

void ChaosEngine::join() {
  if (thread_.joinable()) thread_.join();
}

void ChaosEngine::run() {
  const auto t0 = Clock::now();
  for (const FaultEvent& event : timeline_) {
    // Sleep to the event's emulated offset in slices so stop() is prompt.
    const auto deadline =
        t0 + std::chrono::duration_cast<Duration>(event.at /
                                                  Clock::time_scale());
    const bool stopped = !Clock::sleep_until(deadline, [this] {
      MutexLock lock(mutex_);
      return stop_;
    });
    if (stopped) return;

    FaultRecord record;
    record.planned_at = event.at;
    record.kind = event.kind;
    record.target = event.target;
    record.status = apply(event);
    record.applied_at = std::chrono::duration_cast<Duration>(
        (Clock::now() - t0) * Clock::time_scale());
    if (record.status.ok()) {
      tel::MetricsRegistry::global().counter("chaos.faults_injected").add();
      PE_LOG_INFO("chaos: " << to_string(event.kind) << " '" << event.target
                            << "' applied at +"
                            << std::chrono::duration_cast<
                                   std::chrono::milliseconds>(
                                   record.applied_at)
                                   .count()
                            << "ms");
    } else {
      PE_LOG_WARN("chaos: " << to_string(event.kind) << " '" << event.target
                            << "' failed: " << record.status.to_string());
    }
    MutexLock lock(mutex_);
    records_.push_back(std::move(record));
  }
}

Status ChaosEngine::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kPreemptPilot: {
      if (pilot_manager_ == nullptr) {
        return Status::FailedPrecondition("no pilot manager bound");
      }
      auto pilot = pilot_manager_->pilot(event.target);
      if (!pilot.ok()) return pilot.status();
      return pilot.value()->inject_failure(event.reason);
    }
    case FaultKind::kCrashWorker: {
      if (clusters_.empty()) {
        return Status::FailedPrecondition("no cluster bound");
      }
      for (const auto& cluster : clusters_) {
        const auto ids = cluster->scheduler().worker_ids();
        if (std::find(ids.begin(), ids.end(), event.target) != ids.end()) {
          return cluster->crash_worker(event.target);
        }
      }
      return Status::NotFound("worker '" + event.target +
                              "' not found in any bound cluster");
    }
    case FaultKind::kDegradeLink:
    case FaultKind::kPartitionLink:
    case FaultKind::kRestoreLink:
      return apply_link_fault(event);
    case FaultKind::kDropBrokerPartition:
    case FaultKind::kRestoreBrokerPartition: {
      if (!broker_) return Status::FailedPrecondition("no broker bound");
      return broker_->set_partition_offline(
          event.target, event.partition,
          event.kind == FaultKind::kDropBrokerPartition);
    }
    case FaultKind::kCrashBroker: {
      // A named member target ("broker-2") addresses the bound cluster;
      // the legacy "broker" target keeps the singleton-broker semantics
      // (power-cut + immediate in-place recovery).
      if (broker_cluster_ && !event.target.empty() &&
          event.target != "broker") {
        return broker_cluster_->kill_broker(event.target);
      }
      if (!broker_) return Status::FailedPrecondition("no broker bound");
      auto recovered = broker_->crash_and_recover(event.keep_fraction);
      if (!recovered.ok()) return recovered.status();
      PE_LOG_INFO("chaos: broker recovered — "
                  << recovered.value().to_string());
      return Status::Ok();
    }
    case FaultKind::kIsolateBroker: {
      if (!broker_cluster_) {
        return Status::FailedPrecondition("no broker cluster bound");
      }
      return broker_cluster_->set_broker_isolated(event.target, true);
    }
    case FaultKind::kRestoreBroker: {
      if (!broker_cluster_) {
        return Status::FailedPrecondition("no broker cluster bound");
      }
      return broker_cluster_->restore_broker(event.target,
                                             event.keep_fraction);
    }
    case FaultKind::kKillPeerProcess: {
      // Real process kill (transport smoke harness): the target is a
      // decimal pid of a peer the harness spawned. Guarded against
      // killing ourselves or anything we cannot plausibly own.
      char* end = nullptr;
      const long pid = std::strtol(event.target.c_str(), &end, 10);
      if (end == event.target.c_str() || *end != '\0' || pid <= 1) {
        return Status::InvalidArgument("kill-peer-process target must be a "
                                       "pid > 1, got '" +
                                       event.target + "'");
      }
      if (pid == static_cast<long>(::getpid())) {
        return Status::InvalidArgument("refusing to SIGKILL self");
      }
      if (::kill(static_cast<pid_t>(pid), SIGKILL) != 0) {
        return Status::NotFound("kill(" + event.target +
                                "): " + std::strerror(errno));
      }
      tel::MetricsRegistry::global()
          .counter("transport.peer_kills")
          .add();
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown fault kind");
}

Status ChaosEngine::apply_link_fault(const FaultEvent& event) {
  if (!fabric_) return Status::FailedPrecondition("no fabric bound");
  const auto sep = event.target.find("->");
  if (sep == std::string::npos) {
    return Status::InvalidArgument("link target must be 'from->to', got '" +
                                   event.target + "'");
  }
  const net::SiteId from = event.target.substr(0, sep);
  const net::SiteId to = event.target.substr(sep + 2);
  if (event.kind == FaultKind::kRestoreLink) {
    return fabric_->clear_link_fault(from, to);
  }
  net::LinkFault fault;
  if (event.kind == FaultKind::kPartitionLink) {
    fault.partitioned = true;
  } else {
    fault.latency_factor = event.latency_factor;
    fault.bandwidth_factor = event.bandwidth_factor;
  }
  return fabric_->inject_link_fault(from, to, fault);
}

std::vector<FaultRecord> ChaosEngine::records() const {
  MutexLock lock(mutex_);
  return records_;
}

std::string ChaosEngine::sequence_signature() const {
  std::ostringstream out;
  for (const FaultEvent& e : timeline_) {
    out << to_string(e.kind) << "@"
        << std::chrono::duration_cast<std::chrono::microseconds>(e.at)
               .count()
        << "us:" << e.target;
    if (e.kind == FaultKind::kDropBrokerPartition ||
        e.kind == FaultKind::kRestoreBrokerPartition) {
      out << "/" << e.partition;
    }
    out << ";";
  }
  return out.str();
}

}  // namespace pe::fault
