// Declarative fault plans for the chaos engine.
//
// A FaultPlan is a list of timestamped fault events ("at t=250ms preempt
// pilot p-3", "at t=1s partition the WAN link for 400ms") that the
// ChaosEngine executes against a running topology. Plans are plain data:
// they can be built programmatically, logged, and replayed — with a fixed
// seed the resolved timeline is bit-identical across runs, which is what
// makes failure experiments reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace pe::fault {

enum class FaultKind {
  kPreemptPilot,             // Pilot::inject_failure (spot VM preemption)
  kCrashWorker,              // Cluster::crash_worker (process/device death)
  kDegradeLink,              // scale link latency/bandwidth
  kPartitionLink,            // link transfers fail UNAVAILABLE
  kRestoreLink,              // clear any link fault
  kDropBrokerPartition,      // partition leader lost: produce/fetch fail
  kRestoreBrokerPartition,   // partition back online
  kCrashBroker,              // durable broker: power-cut + recover from disk
                             // (cluster mode: kill one named member)
  kIsolateBroker,            // cluster member unreachable (network split)
  kRestoreBroker,            // cluster member back (recover + rejoin)
  kKillPeerProcess,          // SIGKILL a real peer OS process (target =
                             // decimal pid; transport smoke harness)
};

constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kPreemptPilot: return "preempt-pilot";
    case FaultKind::kCrashWorker: return "crash-worker";
    case FaultKind::kDegradeLink: return "degrade-link";
    case FaultKind::kPartitionLink: return "partition-link";
    case FaultKind::kRestoreLink: return "restore-link";
    case FaultKind::kDropBrokerPartition: return "drop-broker-partition";
    case FaultKind::kRestoreBrokerPartition:
      return "restore-broker-partition";
    case FaultKind::kCrashBroker: return "crash-broker";
    case FaultKind::kIsolateBroker: return "isolate-broker";
    case FaultKind::kRestoreBroker: return "restore-broker";
    case FaultKind::kKillPeerProcess: return "kill-peer-process";
  }
  return "?";
}

/// One scheduled fault. `at` is an emulated offset from ChaosEngine
/// start; targets are pilot ids, worker ids, "from->to" link names, or
/// topic names (with `partition`) depending on the kind.
struct FaultEvent {
  Duration at = Duration::zero();
  FaultKind kind = FaultKind::kPreemptPilot;
  std::string target;
  /// For link/broker faults: auto-restore after this long (zero = the
  /// fault is permanent). Ignored for pilot/worker faults, which are
  /// inherently permanent — recovery is the subsystems' job.
  Duration duration = Duration::zero();
  double latency_factor = 1.0;
  double bandwidth_factor = 1.0;
  std::uint32_t partition = 0;
  /// For kCrashBroker: fraction of each log's unsynced tail bytes that
  /// survive the power cut (0 = clean cut at the fsync boundary; values
  /// in between produce torn batches for recovery to truncate).
  double keep_fraction = 0.0;
  std::string reason = "chaos";
};

/// Builder-style plan. `jitter_fraction` perturbs each event's `at` by a
/// seeded uniform draw in [-f, +f] of its nominal value (clamped at 0),
/// modeling imprecise real-world fault timing while staying reproducible.
struct FaultPlan {
  std::vector<FaultEvent> events;
  double jitter_fraction = 0.0;

  FaultPlan& preempt_pilot(Duration at, std::string pilot_id,
                           std::string reason = "chaos preemption") {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kPreemptPilot;
    e.target = std::move(pilot_id);
    e.reason = std::move(reason);
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& crash_worker(Duration at, std::string worker_id) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kCrashWorker;
    e.target = std::move(worker_id);
    events.push_back(std::move(e));
    return *this;
  }

  /// `link` is "from->to" (site ids); factors scale the sampled latency
  /// (>1 slower) and bandwidth (<1 slower).
  FaultPlan& degrade_link(Duration at, std::string link,
                          Duration duration, double latency_factor,
                          double bandwidth_factor) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kDegradeLink;
    e.target = std::move(link);
    e.duration = duration;
    e.latency_factor = latency_factor;
    e.bandwidth_factor = bandwidth_factor;
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& partition_link(Duration at, std::string link,
                            Duration duration) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kPartitionLink;
    e.target = std::move(link);
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& drop_broker_partition(Duration at, std::string topic,
                                   std::uint32_t partition,
                                   Duration duration) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kDropBrokerPartition;
    e.target = std::move(topic);
    e.partition = partition;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  /// Hard-crashes the bound durable broker mid-pipeline and recovers it
  /// from disk in place (Broker::crash_and_recover). Consumers and
  /// producers observe the broker as if its process died and restarted.
  FaultPlan& crash_broker(Duration at, double keep_fraction = 0.0,
                          std::string reason = "chaos broker crash") {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kCrashBroker;
    e.target = "broker";
    e.keep_fraction = keep_fraction;
    e.reason = std::move(reason);
    events.push_back(std::move(e));
    return *this;
  }

  /// Kills one named member of a bound BrokerCluster ("broker-2"): its
  /// heartbeat goes stale, its partitions fail over, and — when
  /// `duration` is non-zero — a synthesized kRestoreBroker brings it back
  /// (durable members crash-recover from disk, keeping `keep_fraction`
  /// of unsynced tail bytes) to rejoin as a follower.
  FaultPlan& crash_cluster_broker(Duration at, std::string broker_name,
                                  Duration duration = Duration::zero(),
                                  double keep_fraction = 0.0,
                                  std::string reason = "chaos broker crash") {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kCrashBroker;
    e.target = std::move(broker_name);
    e.duration = duration;
    e.keep_fraction = keep_fraction;
    e.reason = std::move(reason);
    events.push_back(std::move(e));
    return *this;
  }

  /// SIGKILLs a real peer OS process by pid — the transport smoke
  /// harness's mid-run producer kill. Unlike every other fault this one
  /// is not emulated: the target process actually dies, and recovery is
  /// the control plane's heartbeat GC, not any bound subsystem.
  FaultPlan& kill_peer_process(Duration at, std::uint64_t pid,
                               std::string reason = "chaos peer kill") {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kKillPeerProcess;
    e.target = std::to_string(pid);
    e.reason = std::move(reason);
    events.push_back(std::move(e));
    return *this;
  }

  /// Network-isolates one named cluster member for `duration` (zero =
  /// until a kRestoreBroker): it stays up but stops heartbeating, so its
  /// partitions fail over without any data loss on the member itself.
  FaultPlan& isolate_broker(Duration at, std::string broker_name,
                            Duration duration = Duration::zero()) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kIsolateBroker;
    e.target = std::move(broker_name);
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }
};

/// What actually happened when an event fired.
struct FaultRecord {
  Duration planned_at = Duration::zero();   // jitter-resolved offset
  Duration applied_at = Duration::zero();   // emulated elapsed at apply
  FaultKind kind = FaultKind::kPreemptPilot;
  std::string target;
  Status status;
};

}  // namespace pe::fault
