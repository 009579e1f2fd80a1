// EdgeToCloudPipeline: the Pilot-Edge application runtime (Listing 2).
//
// Wires produce functions on edge pilots through a pilot-managed broker
// topic to processing functions on cloud pilots, stamping telemetry spans
// at every stage. Supports the paper's dynamism hooks: processing
// functions can be replaced at runtime without new pilots, and processing
// capacity can be scaled out while the pipeline runs.
//
// Beyond two layers (paper §V: "generalize the abstraction to arbitrary
// architectures and topologies"), add_stage() inserts forwarding stages
// between the devices and the cloud stage, each on its own pilot and
// connected by its own topic:
//
//   devices --> [topic] --stage 0--> [topic-s1] --stage 1--> ... --> cloud
//
// Every stage runs the same loop (decode, message-id dedup, transient
// retry, dead-letter queue); the cloud stage is always the last one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "broker/broker.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "mqtt/mqtt_bridge.h"
#include "core/faas.h"
#include "core/placement.h"
#include "paramserver/server.h"
#include "resource/pilot.h"
#include "resource/pilot_manager.h"
#include "taskexec/scheduler.h"
#include "telemetry/collector.h"
#include "telemetry/report.h"

namespace pe::core {

/// How edge data enters the broker fabric.
enum class IngestPath {
  /// Devices produce straight to the Kafka-model broker (default).
  kKafkaDirect,
  /// Devices publish via a lightweight MQTT broker on the edge site; an
  /// MQTT->Kafka bridge on the broker site forwards into the topic
  /// (paper §II-B: MQTT plugin for low-power environments). Partitioning
  /// is then by device key hash instead of explicit assignment.
  kMqttBridge,
};

struct PipelineConfig {
  std::string topic = "pe-data";
  IngestPath ingest = IngestPath::kKafkaDirect;
  std::size_t edge_devices = 1;
  /// 0 = one partition per edge device (the paper's setup).
  std::uint32_t partitions = 0;
  std::size_t messages_per_device = 512;  // paper: 512 messages per run
  std::size_t rows_per_message = 1000;
  /// 0 = one processing task per partition (paper: constant Kafka:Dask
  /// partition ratio).
  std::size_t processing_tasks = 0;
  DeploymentMode mode = DeploymentMode::kCloudCentric;
  /// Pause between messages on each device (0 = produce at full rate).
  Duration produce_interval = Duration::zero();
  Duration poll_timeout = std::chrono::milliseconds(50);
  Duration run_timeout = std::chrono::minutes(10);
  bool enable_parameter_server = true;
  /// Publish a compact ResultRecord per processed message to
  /// "<topic>-results" (consumable by downstream applications).
  bool emit_results = false;
  /// When true (and a PilotManager with auto_reprovision is attached via
  /// set_pilot_manager), the pipeline subscribes to pilot-replacement
  /// events and re-binds: a replaced cloud pilot gets its processing
  /// tasks respawned on the new cluster (consumers rejoin the group, the
  /// message-id dedup absorbs redelivery); a replaced edge pilot is
  /// swapped in for future scale-out but finished producers are not
  /// restarted (that would duplicate data).
  bool auto_recover = false;
  /// Per-record processing retries for *transient* failures before the
  /// record is routed to the "<topic>.dlq" dead-letter topic.
  /// Non-transient failures dead-letter immediately.
  std::uint32_t processing_retries = 2;
  /// Copied into every FunctionContext (Listing 2: function_context).
  ConfigMap function_context;
};

/// A forwarding processing layer inserted before the cloud stage.
struct StageSpec {
  std::string name;
  res::PilotPtr pilot;
  ProcessFnFactory process;
  /// Parallel tasks for this stage; 0 = one per input-topic partition.
  std::size_t tasks = 0;
};

/// Per-stage counters of a run, in chain order (cloud stage last).
struct StageReport {
  std::string name;
  /// Records this stage finished with: passed on, dead-lettered or
  /// undecodable (duplicates are not counted).
  std::uint64_t messages_in = 0;
  /// Records forwarded to the next stage; for the cloud stage, records
  /// processed successfully.
  std::uint64_t messages_out = 0;
  std::uint64_t errors = 0;
  /// Mean processing time per handled record, retries included.
  double mean_processing_ms = 0.0;
};

/// Everything a finished run reports.
struct PipelineRunReport {
  Status status = Status::Ok();
  tel::RunReport run;
  std::uint64_t messages_produced = 0;
  std::uint64_t messages_processed = 0;
  std::uint64_t outliers_detected = 0;
  std::uint64_t processing_errors = 0;
  /// Broker redeliveries skipped by message-id deduplication.
  std::uint64_t duplicates_skipped = 0;
  /// Records that exhausted processing retries and went to the DLQ (they
  /// still count as processed so the run drains).
  std::uint64_t messages_dead_lettered = 0;
  /// Pilot replacements the pipeline re-bound to during this run.
  std::uint64_t pilot_recoveries = 0;
  broker::BrokerStats broker;
  ps::ServerStats parameter_server;
  std::vector<StageReport> stages;

  /// Chain summary line plus one line per stage.
  std::string to_string() const;
};

class EdgeToCloudPipeline {
 public:
  explicit EdgeToCloudPipeline(PipelineConfig config);
  ~EdgeToCloudPipeline();

  EdgeToCloudPipeline(const EdgeToCloudPipeline&) = delete;
  EdgeToCloudPipeline& operator=(const EdgeToCloudPipeline&) = delete;

  // --- wiring (mirrors Listing 2) ---
  EdgeToCloudPipeline& set_pilot_edge(res::PilotPtr pilot);
  /// Additional edge pilots; devices are spread round-robin across all.
  EdgeToCloudPipeline& add_pilot_edge(res::PilotPtr pilot);
  EdgeToCloudPipeline& set_pilot_cloud_processing(res::PilotPtr pilot);
  EdgeToCloudPipeline& set_pilot_cloud_broker(res::PilotPtr pilot);
  EdgeToCloudPipeline& set_produce_function(ProduceFnFactory factory);
  EdgeToCloudPipeline& set_process_edge_function(ProcessFnFactory factory);
  EdgeToCloudPipeline& set_process_cloud_function(ProcessFnFactory factory);
  /// Appends a forwarding stage before the cloud stage; stages run in
  /// insertion order. Call before start().
  EdgeToCloudPipeline& add_stage(StageSpec stage);
  EdgeToCloudPipeline& set_fabric(std::shared_ptr<net::Fabric> fabric);
  /// Attaches the (non-owned) manager whose replacement events drive
  /// config.auto_recover. The manager must outlive the pipeline run.
  EdgeToCloudPipeline& set_pilot_manager(res::PilotManager* manager);

  const std::string& id() const { return id_; }
  const PipelineConfig& config() const { return config_; }
  /// Topic name carrying ResultRecords when config().emit_results is set.
  std::string results_topic() const { return config_.topic + "-results"; }
  /// Stages including the cloud stage.
  std::size_t stage_count() const { return stage_states_.size(); }
  /// Input topic of stage `stage`: config().topic for the first stage,
  /// "<topic>-s<k>" for the k-th.
  std::string stage_topic(std::size_t stage) const;

  /// start + wait + stop in one call.
  Result<PipelineRunReport> run();

  /// Launches producers and processors; returns immediately.
  Status start();
  /// Blocks until all produced messages are processed (or run_timeout).
  Status wait();
  /// Stops all tasks and finalizes.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Builds a report from the spans completed so far.
  PipelineRunReport report(const std::string& label = "") const;

  // --- runtime dynamism (paper §II-D) ---
  /// Atomically replaces the cloud processing function; running tasks pick
  /// the new function up on their next message — no new pilot needed.
  void replace_process_cloud_function(ProcessFnFactory factory);
  /// Adds `count` processing tasks on the cloud pilot at runtime.
  Status scale_processing(std::size_t count);

  /// Live progress counters.
  std::uint64_t messages_produced() const { return produced_.load(); }
  /// Records the cloud stage has finished with.
  std::uint64_t messages_processed() const {
    return stage_states_.back()->handled.load();
  }

  /// The pipeline-managed parameter server (null before start or when
  /// disabled).
  std::shared_ptr<ps::ParameterServer> parameter_server() const;

 private:
  /// Run counters and dedup state of one stage.
  struct StageState {
    std::atomic<std::uint64_t> handled{0};
    std::atomic<std::uint64_t> out{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> process_ns{0};
    /// Task indices handed out (names and FunctionContext task ids).
    std::atomic<std::size_t> spawned{0};
    // At-least-once delivery from the broker (consumer-group rebalances
    // can redeliver uncommitted records) is turned into effectively-once
    // processing by deduplicating on the unique message id.
    Mutex seen_mutex;
    std::unordered_set<std::uint64_t> seen PE_GUARDED_BY(seen_mutex);
  };

  Status validate() const;
  exec::TaskSpec make_processing_task(std::size_t stage,
                                      std::size_t task_index)
      PE_REQUIRES(wiring_mutex_);
  Status producer_body(exec::TaskContext& tctx, std::size_t device_index,
                       const net::SiteId& site);
  Status processing_body(exec::TaskContext& tctx, std::size_t stage,
                         std::size_t task_index, const net::SiteId& site);
  /// Bounded wait until every processing consumer that is running (not
  /// queued on its pilot) has joined its group; then releases them to
  /// poll. Producers started earlier would race the joins: a member that
  /// polls under a stale assignment fetches a partition its successor
  /// then re-reads from the uncommitted start.
  void await_consumer_groups(const std::vector<res::PilotPtr>& stage_pilots,
                             std::size_t consumers);
  /// A stage is done once its upstream is done and it has handled every
  /// record the upstream passed on.
  bool stage_done(std::size_t stage) const;
  bool work_finished() const { return stage_done(stage_states_.size() - 1); }
  std::size_t stage_tasks(std::size_t stage) const
      PE_REQUIRES(wiring_mutex_);
  /// PilotManager replacement event: re-bind the matching pilot pointer
  /// and (for a stage's pilot) respawn that stage's tasks on the
  /// replacement cluster. Runs on the manager's monitor thread.
  void on_pilot_replaced(const res::PilotPtr& failed,
                         const res::PilotPtr& replacement);
  Status scale_stage_locked(std::size_t stage, std::size_t count)
      PE_REQUIRES(wiring_mutex_);
  /// Dead-letters a record after exhausted/non-transient processing
  /// failure; the caller counts it as handled so the run drains.
  void dead_letter_record(const broker::ConsumedRecord& record,
                          const Status& failure);

  const std::string id_;
  PipelineConfig config_;
  std::shared_ptr<net::Fabric> fabric_;
  // Pilot bindings and stage functions can be swapped at runtime by
  // recovery and hot-swap. Held while calling into the resource and exec
  // domains, so nothing reachable from them may call back in here.
  mutable Mutex wiring_mutex_;
  std::vector<res::PilotPtr> edge_pilots_ PE_GUARDED_BY(wiring_mutex_);
  res::PilotPtr broker_pilot_ PE_GUARDED_BY(wiring_mutex_);
  /// Forwarding stages, then the cloud stage ("proc") last.
  std::vector<StageSpec> stages_ PE_GUARDED_BY(wiring_mutex_);
  res::PilotManager* pilot_manager_ = nullptr;
  std::uint64_t replacement_sub_token_ = 0;
  ProduceFnFactory produce_factory_;
  ProcessFnFactory edge_factory_;

  // Run state.
  std::shared_ptr<broker::Broker> broker_;
  std::shared_ptr<mqtt::MqttBroker> mqtt_broker_;
  std::unique_ptr<mqtt::MqttKafkaBridge> mqtt_bridge_;
  std::shared_ptr<ps::ParameterServer> param_server_;
  std::shared_ptr<tel::SpanCollector> collector_;
  std::vector<exec::TaskHandle> producer_handles_;
  // Recovery appends re-spawned tasks from the monitor thread, so the
  // processing fleet shares the wiring lock.
  std::vector<exec::TaskHandle> processing_handles_
      PE_GUARDED_BY(wiring_mutex_);
  /// Parallel to stages_; grows only in add_stage, before start().
  std::vector<std::unique_ptr<StageState>> stage_states_;
  std::uint32_t effective_partitions_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> producers_done_{false};
  std::atomic<std::uint64_t> produced_{0};
  std::atomic<std::uint64_t> outliers_{0};
  /// Producer-side errors; stage errors are counted per stage.
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> dead_lettered_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> producers_running_{0};
  // Startup barrier (start()): processing consumers that joined their
  // group; set once every running one has, and they may poll.
  std::atomic<std::size_t> consumers_joined_{0};
  std::atomic<bool> groups_formed_{false};

  // Bumped by replace_process_cloud_function (dynamism).
  std::atomic<std::uint64_t> cloud_factory_generation_{0};
};

}  // namespace pe::core
