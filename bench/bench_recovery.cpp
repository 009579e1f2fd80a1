// Recovery benchmark: mean time to recover (MTTR) after injected faults.
//
// Three scenarios, each repeated PE_BENCH_REPEATS times (default 5):
//   pilot-preemption  submit a cloud pilot with auto_reprovision enabled,
//                     preempt it, and time failure -> replacement ACTIVE
//                     (heartbeat detection + backoff + re-provisioning).
//   worker-crash      run a task on a 2-worker cluster, crash its worker,
//                     and time crash -> the re-dispatched execution starts
//                     on the survivor.
//   broker-failover   kill a partition leader in a 3-broker replicated
//                     cluster and time kill -> the first acks=quorum
//                     produce acknowledged by the new leader (heartbeat
//                     expiry + election + client metadata refresh).
// Results print as a table plus one machine-readable "BENCH {...}" json
// line per scenario.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "broker/producer.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_endpoint.h"
#include "fault/chaos_engine.h"
#include "resource/pilot_manager.h"
#include "telemetry/json.h"

namespace {

using namespace pe;

struct MttrSample {
  std::vector<double> ms;

  double mean() const {
    double sum = 0.0;
    for (double v : ms) sum += v;
    return ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
  }
  double min() const {
    return ms.empty() ? 0.0 : *std::min_element(ms.begin(), ms.end());
  }
  double max() const {
    return ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end());
  }
};

std::size_t env_repeats() {
  const char* v = std::getenv("PE_BENCH_REPEATS");
  const long long parsed = v != nullptr ? std::atoll(v) : 0;
  return parsed > 0 ? static_cast<std::size_t>(parsed) : 5;
}

// Emulated elapsed milliseconds (wall time re-scaled by the clock factor).
double emulated_ms(const Stopwatch& sw) {
  return sw.elapsed_ms() * Clock::time_scale();
}

MttrSample bench_pilot_preemption(std::size_t repeats) {
  MttrSample sample;
  for (std::size_t i = 0; i < repeats; ++i) {
    auto fabric = net::Fabric::make_paper_topology();
    res::PilotManagerOptions options;
    options.startup_delay_factor = 0.0005;
    options.auto_reprovision = true;
    options.heartbeat_interval = std::chrono::milliseconds(5);
    options.reprovision_backoff = std::chrono::milliseconds(1);
    res::PilotManager manager(fabric, options);
    auto pilot = manager.submit(res::Flavors::lrz_large()).value();
    if (!pilot->wait_active().ok()) std::abort();

    Stopwatch sw;
    // Drive the preemption through the chaos engine (immediate event) so
    // the bench exercises the same path as a FaultPlan experiment.
    fault::FaultPlan plan;
    plan.preempt_pilot(Duration::zero(), pilot->id(), "bench preemption");
    fault::ChaosEngine engine(std::move(plan));
    engine.set_pilot_manager(&manager);
    if (!engine.start().ok()) std::abort();
    engine.join();
    while (manager.reprovision_count() < 1) {
      Clock::sleep_exact(std::chrono::microseconds(200));
    }
    sample.ms.push_back(emulated_ms(sw));
  }
  return sample;
}

MttrSample bench_worker_crash(std::size_t repeats) {
  MttrSample sample;
  for (std::size_t i = 0; i < repeats; ++i) {
    auto cluster = std::make_shared<exec::Cluster>("lrz-eu", 2, 8.0, "bench");
    if (!cluster->add_worker(2, 8.0).ok()) std::abort();

    auto executions = std::make_shared<std::atomic<int>>(0);
    exec::TaskSpec spec;
    spec.fn = [executions](exec::TaskContext& ctx) -> Status {
      executions->fetch_add(1);
      while (!ctx.stop_requested()) {
        Clock::sleep_exact(std::chrono::microseconds(200));
      }
      return Status::Cancelled("stopped");
    };
    auto handle = cluster->submit(std::move(spec));
    if (!handle.ok()) std::abort();
    while (executions->load() == 0) {
      Clock::sleep_exact(std::chrono::microseconds(200));
    }
    const std::string victim =
        cluster->scheduler().task_info(handle.value().id()).value().worker_id;

    Stopwatch sw;
    fault::FaultPlan plan;
    plan.crash_worker(Duration::zero(), victim);
    fault::ChaosEngine engine(std::move(plan));
    engine.add_cluster(cluster);
    if (!engine.start().ok()) std::abort();
    engine.join();
    while (executions->load() < 2) {
      Clock::sleep_exact(std::chrono::microseconds(200));
    }
    sample.ms.push_back(emulated_ms(sw));
    cluster->shutdown();
  }
  return sample;
}

MttrSample bench_broker_failover(std::size_t repeats) {
  using namespace std::chrono_literals;
  MttrSample sample;
  for (std::size_t i = 0; i < repeats; ++i) {
    cluster::ClusterOptions options;
    options.brokers = 3;
    options.replication_factor = 3;
    options.heartbeat_interval = 1ms;
    options.session_timeout = 5ms;
    auto bc = std::make_shared<cluster::BrokerCluster>(options);
    if (!bc->create_topic("bench").ok()) std::abort();
    broker::Producer producer(
        std::make_shared<cluster::ClusterEndpoint>(
            bc, cluster::AckPolicy::kQuorum),
        nullptr, "bench");
    broker::Record warmup;
    warmup.key = "warmup";
    if (!producer.send("bench", 0, std::move(warmup)).ok()) std::abort();
    const auto leader = bc->leader("bench", 0).value();

    Stopwatch sw;
    // Kill through the chaos engine's targeted member crash, then time
    // until a produce is acked again: heartbeat expiry, election, and the
    // client's NOT_LEADER/UNAVAILABLE retry loop all land in the sample.
    fault::FaultPlan plan;
    plan.crash_cluster_broker(Duration::zero(),
                              "broker-" + std::to_string(leader));
    fault::ChaosEngine engine(std::move(plan));
    engine.set_broker_cluster(bc);
    if (!engine.start().ok()) std::abort();
    engine.join();
    broker::Record probe;
    probe.key = "probe";
    if (!producer.send("bench", 0, std::move(probe)).ok()) std::abort();
    sample.ms.push_back(emulated_ms(sw));
  }
  return sample;
}

void report(const char* scenario, std::size_t repeats,
            const MttrSample& sample) {
  std::printf("%-18s %7zu %12.2f %12.2f %12.2f\n", scenario, repeats,
              sample.mean(), sample.min(), sample.max());
  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("recovery");
  w.key("scenario").value(scenario);
  w.key("repeats").value(static_cast<std::uint64_t>(repeats));
  w.key("mttr_ms_mean").value(sample.mean());
  w.key("mttr_ms_min").value(sample.min());
  w.key("mttr_ms_max").value(sample.max());
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main() {
  pe::Logger::set_level(pe::LogLevel::kError);
  const std::size_t repeats = env_repeats();

  std::printf("Recovery MTTR (emulated ms; startup delays at x2000 speed)\n\n");
  std::printf("%-18s %7s %12s %12s %12s\n", "scenario", "repeats", "mean_ms",
              "min_ms", "max_ms");
  std::printf("%s\n", std::string(66, '-').c_str());

  report("pilot-preemption", repeats, bench_pilot_preemption(repeats));
  report("worker-crash", repeats, bench_worker_crash(repeats));
  report("broker-failover", repeats, bench_broker_failover(repeats));
  return 0;
}
