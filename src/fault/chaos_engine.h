// ChaosEngine: deterministic executor for declarative FaultPlans.
//
// The engine resolves a plan into a jittered, time-ordered timeline at
// construction (seeded — two engines with the same plan and seed produce
// identical timelines), then replays it against the bound subsystems on a
// background thread: pilots are preempted through Pilot::inject_failure,
// workers crash through Cluster::crash_worker, fabric links degrade or
// partition through Fabric::inject_link_fault, and broker partitions go
// offline through Broker::set_partition_offline. Events with a duration
// expand into apply/restore pairs. All offsets are emulated durations:
// the wall sleep between events is divided by Clock::time_scale(), so a
// scenario behaves identically at any emulation speed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "cluster/broker_cluster.h"
#include "common/mutex.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "network/fabric.h"
#include "resource/pilot_manager.h"
#include "taskexec/cluster.h"

namespace pe::fault {

class ChaosEngine {
 public:
  explicit ChaosEngine(FaultPlan plan, std::uint64_t seed = 42);
  ~ChaosEngine();

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // --- binding (all optional; events without a bound subsystem record
  // FAILED_PRECONDITION instead of crashing) ---
  ChaosEngine& set_pilot_manager(res::PilotManager* manager);
  ChaosEngine& set_fabric(std::shared_ptr<net::Fabric> fabric);
  ChaosEngine& set_broker(std::shared_ptr<broker::Broker> broker);
  /// Replicated broker cluster: kCrashBroker events naming a member
  /// ("broker-2") kill that member, kIsolateBroker / kRestoreBroker
  /// split and heal it. Events with the legacy "broker" target keep
  /// hitting the singleton bound via set_broker.
  ChaosEngine& set_broker_cluster(
      std::shared_ptr<cluster::BrokerCluster> cluster);
  /// Clusters to scan when resolving kCrashWorker targets by worker id.
  ChaosEngine& add_cluster(std::shared_ptr<exec::Cluster> cluster);

  /// Launches the injection thread. FAILED_PRECONDITION if already
  /// started.
  Status start();
  /// Asks the thread to stop after the current event and joins it.
  void stop();
  /// Blocks until every event fired (or stop() was called).
  void join();

  /// The jitter-resolved, time-ordered timeline (stable across runs for
  /// the same plan + seed; includes synthesized restore events).
  const std::vector<FaultEvent>& resolved_timeline() const {
    return timeline_;
  }

  /// Records of events applied so far.
  std::vector<FaultRecord> records() const;

  /// Compact "kind@ms:target" signature of the resolved timeline — equal
  /// signatures mean equal replay order and timing.
  std::string sequence_signature() const;

 private:
  void run();
  Status apply(const FaultEvent& event);
  Status apply_link_fault(const FaultEvent& event);

  const std::uint64_t seed_;
  std::vector<FaultEvent> timeline_;

  res::PilotManager* pilot_manager_ = nullptr;
  std::shared_ptr<net::Fabric> fabric_;
  std::shared_ptr<broker::Broker> broker_;
  std::shared_ptr<cluster::BrokerCluster> broker_cluster_;
  std::vector<std::shared_ptr<exec::Cluster>> clusters_;

  mutable Mutex mutex_;
  std::vector<FaultRecord> records_ PE_GUARDED_BY(mutex_);
  std::thread thread_;
  bool started_ PE_GUARDED_BY(mutex_) = false;
  bool stop_ PE_GUARDED_BY(mutex_) = false;
};

}  // namespace pe::fault
