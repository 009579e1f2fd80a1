#include "core/pipeline.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/ids.h"
#include "common/logging.h"
#include "core/results.h"
#include "data/codec.h"
#include "telemetry/metrics.h"

namespace pe::core {

namespace {

// Startup barrier bound (wall time) and its check interval.
constexpr auto kStartupBarrierTimeout = std::chrono::seconds(2);
constexpr auto kStartupBarrierStep = std::chrono::microseconds(50);

// Compact summary published to the results topic.
broker::Record result_record(std::uint64_t message_id,
                             const ProcessResult& result) {
  ResultRecord summary;
  summary.message_id = message_id;
  summary.rows = result.block.rows;
  summary.outliers = result.outliers;
  summary.processed_ns = Clock::now_ns();
  if (!result.scores.empty()) {
    double sum = 0.0, max = result.scores.front();
    for (double s : result.scores) {
      sum += s;
      if (s > max) max = s;
    }
    summary.score_mean = sum / static_cast<double>(result.scores.size());
    summary.score_max = max;
  }
  broker::Record out;
  out.key = result.block.producer_id;
  out.value = summary.encode();
  return out;
}

}  // namespace

EdgeToCloudPipeline::EdgeToCloudPipeline(PipelineConfig config)
    : id_(next_pipeline_id()), config_(std::move(config)) {
  stages_.push_back({.name = "proc",
                     .pilot = nullptr,
                     .process = nullptr,
                     .tasks = config_.processing_tasks});
  stage_states_.push_back(std::make_unique<StageState>());
}

EdgeToCloudPipeline::~EdgeToCloudPipeline() { stop(); }

EdgeToCloudPipeline& EdgeToCloudPipeline::set_pilot_edge(res::PilotPtr p) {
  MutexLock lock(wiring_mutex_);
  edge_pilots_.clear();
  edge_pilots_.push_back(std::move(p));
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::add_pilot_edge(res::PilotPtr p) {
  MutexLock lock(wiring_mutex_);
  edge_pilots_.push_back(std::move(p));
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_pilot_cloud_processing(
    res::PilotPtr p) {
  MutexLock lock(wiring_mutex_);
  stages_.back().pilot = std::move(p);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_pilot_cloud_broker(
    res::PilotPtr p) {
  MutexLock lock(wiring_mutex_);
  broker_pilot_ = std::move(p);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_produce_function(
    ProduceFnFactory f) {
  produce_factory_ = std::move(f);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_process_edge_function(
    ProcessFnFactory f) {
  edge_factory_ = std::move(f);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_process_cloud_function(
    ProcessFnFactory f) {
  MutexLock lock(wiring_mutex_);
  stages_.back().process = std::move(f);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::add_stage(StageSpec stage) {
  MutexLock lock(wiring_mutex_);
  stages_.insert(stages_.end() - 1, std::move(stage));
  stage_states_.push_back(std::make_unique<StageState>());
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_fabric(
    std::shared_ptr<net::Fabric> fabric) {
  fabric_ = std::move(fabric);
  return *this;
}
EdgeToCloudPipeline& EdgeToCloudPipeline::set_pilot_manager(
    res::PilotManager* manager) {
  pilot_manager_ = manager;
  return *this;
}

std::string EdgeToCloudPipeline::stage_topic(std::size_t stage) const {
  if (stage == 0) return config_.topic;
  return config_.topic + "-s" + std::to_string(stage);
}

Status EdgeToCloudPipeline::validate() const {
  if (!fabric_) return Status::InvalidArgument("no fabric set");
  {
    MutexLock lock(wiring_mutex_);
    if (edge_pilots_.empty()) return Status::InvalidArgument("no edge pilot");
    if (!broker_pilot_) return Status::InvalidArgument("no broker pilot");
    for (const auto& stage : stages_) {
      if (!stage.pilot) {
        return Status::InvalidArgument("stage '" + stage.name +
                                       "' has no pilot");
      }
      if (!stage.process) {
        return Status::InvalidArgument("stage '" + stage.name +
                                       "' has no process function");
      }
    }
  }
  if (!produce_factory_) {
    return Status::InvalidArgument("no produce function");
  }
  if (config_.edge_devices == 0) {
    return Status::InvalidArgument("need >= 1 edge device");
  }
  if ((config_.mode == DeploymentMode::kHybrid ||
       config_.mode == DeploymentMode::kEdgeCentric) &&
      !edge_factory_) {
    return Status::InvalidArgument(
        std::string(to_string(config_.mode)) +
        " deployment needs a process_edge function");
  }
  return Status::Ok();
}

Status EdgeToCloudPipeline::start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  if (auto s = validate(); !s.ok()) return s;

  // Snapshot the pilot bindings; the waits below can block, so they must
  // not run under wiring_mutex_ (recovery rebinds would stall behind us).
  std::vector<res::PilotPtr> edge_pilots;
  std::vector<res::PilotPtr> stage_pilots;
  res::PilotPtr broker_pilot;
  {
    MutexLock lock(wiring_mutex_);
    edge_pilots = edge_pilots_;
    for (const auto& stage : stages_) stage_pilots.push_back(stage.pilot);
    broker_pilot = broker_pilot_;
  }

  for (const auto& p : edge_pilots) {
    if (auto s = p->wait_active(); !s.ok()) return s;
  }
  for (const auto& p : stage_pilots) {
    if (auto s = p->wait_active(); !s.ok()) return s;
  }
  if (auto s = broker_pilot->wait_active(); !s.ok()) return s;

  broker_ = broker_pilot->broker();
  if (!broker_) {
    return Status::InvalidArgument(
        "broker pilot has no broker (use Backend::kBrokerService)");
  }

  effective_partitions_ =
      config_.partitions != 0
          ? config_.partitions
          : static_cast<std::uint32_t>(config_.edge_devices);
  broker::TopicConfig topic_config;
  topic_config.partitions = effective_partitions_;
  for (std::size_t k = 0; k < stage_states_.size(); ++k) {
    if (auto s = broker_->create_topic(stage_topic(k), topic_config);
        !s.ok() && s.code() != StatusCode::kAlreadyExists) {
      return s;
    }
  }

  if (config_.emit_results) {
    broker::TopicConfig results_config;
    results_config.partitions = effective_partitions_;
    if (auto s = broker_->create_topic(results_topic(), results_config);
        !s.ok() && s.code() != StatusCode::kAlreadyExists) {
      return s;
    }
  }

  if (config_.ingest == IngestPath::kMqttBridge) {
    // Lightweight MQTT broker co-located with the (first) edge pilot; the
    // bridge runs on the same edge gateway and forwards into the
    // Kafka-model topic across the fabric.
    const net::SiteId edge_site = edge_pilots.front()->site();
    mqtt_broker_ = std::make_shared<mqtt::MqttBroker>(edge_site);
    mqtt::BridgeConfig bridge_config;
    bridge_config.mqtt_filter = "pe/" + id_ + "/#";
    bridge_config.kafka_topic = config_.topic;
    mqtt_bridge_ = std::make_unique<mqtt::MqttKafkaBridge>(
        mqtt_broker_, broker_, fabric_, edge_site, bridge_config);
    if (auto s = mqtt_bridge_->start(); !s.ok()) return s;
  }

  if (config_.enable_parameter_server) {
    param_server_ = std::make_shared<ps::ParameterServer>(broker_->site());
  }
  collector_ = std::make_shared<tel::SpanCollector>();
  produced_.store(0);
  outliers_.store(0);
  errors_.store(0);
  duplicates_.store(0);
  dead_lettered_.store(0);
  recoveries_.store(0);
  producers_done_.store(false);
  consumers_joined_.store(0);
  groups_formed_.store(false);
  producer_handles_.clear();
  {
    MutexLock lock(wiring_mutex_);
    processing_handles_.clear();
  }
  for (const auto& owned : stage_states_) {
    StageState& state = *owned;
    state.handled.store(0);
    state.out.store(0);
    state.errors.store(0);
    state.process_ns.store(0);
    state.spawned.store(0);
    MutexLock lock(state.seen_mutex);
    state.seen.clear();
  }

  // Capacity sanity: warn when tasks will queue on cores (would distort
  // throughput experiments).
  std::uint32_t edge_cores = 0;
  for (const auto& p : edge_pilots) edge_cores += p->granted_cores();
  if (edge_cores < config_.edge_devices) {
    PE_LOG_WARN("pipeline " << id_ << ": " << config_.edge_devices
                            << " devices on " << edge_cores
                            << " edge cores — devices will queue");
  }

  running_.store(true);

  // Processing stages first, last stage first, so consumers are polling
  // when data arrives.
  std::size_t n_processing = 0;
  Status spawn_status = Status::Ok();
  {
    MutexLock lock(wiring_mutex_);
    for (std::size_t k = stages_.size(); k-- > 0 && spawn_status.ok();) {
      const std::size_t tasks = stage_tasks(k);
      n_processing += tasks;
      if (stages_[k].pilot->granted_cores() < tasks) {
        PE_LOG_WARN("pipeline " << id_ << ": " << tasks << " "
                                << stages_[k].name << " tasks on "
                                << stages_[k].pilot->granted_cores()
                                << " cores — tasks will queue");
      }
      spawn_status = scale_stage_locked(k, tasks);
    }
  }
  if (!spawn_status.ok()) {
    stop();
    return spawn_status;
  }
  await_consumer_groups(stage_pilots, n_processing);

  // Producer (edge device) tasks, round-robin across edge pilots.
  producers_running_.store(config_.edge_devices);
  for (std::size_t d = 0; d < config_.edge_devices; ++d) {
    const auto& pilot = edge_pilots[d % edge_pilots.size()];
    auto cluster = pilot->cluster();
    if (!cluster) {
      stop();
      return Status::Internal("edge pilot without cluster");
    }
    exec::TaskSpec spec;
    spec.name = id_ + "-device-" + std::to_string(d);
    spec.cores = 1;
    spec.memory_gb = 1.0;
    const net::SiteId site = pilot->site();
    spec.fn = [this, d, site](exec::TaskContext& tctx) {
      auto status = producer_body(tctx, d, site);
      if (producers_running_.fetch_sub(1) == 1) {
        producers_done_.store(true, std::memory_order_release);
      }
      return status;
    };
    auto handle = cluster->submit(std::move(spec));
    if (!handle.ok()) {
      stop();
      return handle.status();
    }
    producer_handles_.push_back(std::move(handle).value());
  }
  if (config_.auto_recover && pilot_manager_ != nullptr) {
    replacement_sub_token_ = pilot_manager_->subscribe_replacements(
        [this](const res::PilotPtr& failed, const res::PilotPtr& repl) {
          on_pilot_replaced(failed, repl);
        });
  }

  PE_LOG_INFO("pipeline " << id_ << " started: " << config_.edge_devices
                          << " devices, " << effective_partitions_
                          << " partitions, " << n_processing
                          << " processing tasks, mode "
                          << to_string(config_.mode));
  return Status::Ok();
}

void EdgeToCloudPipeline::await_consumer_groups(
    const std::vector<res::PilotPtr>& stage_pilots, std::size_t consumers) {
  std::vector<std::shared_ptr<exec::Cluster>> clusters;
  for (const auto& pilot : stage_pilots) {
    auto cluster = pilot->cluster();
    if (cluster && std::find(clusters.begin(), clusters.end(), cluster) ==
                       clusters.end()) {
      clusters.push_back(std::move(cluster));
    }
  }
  const auto deadline = Clock::now() + kStartupBarrierTimeout;
  // Tasks queued beyond their pilot's cores join later, whatever we wait.
  while (Clock::now() < deadline) {
    std::size_t queued = 0;
    for (const auto& cluster : clusters) {
      queued += cluster->scheduler().stats().pending_tasks;
    }
    if (consumers_joined_.load() + queued >= consumers) break;
    std::this_thread::sleep_for(kStartupBarrierStep);
  }
  groups_formed_.store(true);
}

void EdgeToCloudPipeline::on_pilot_replaced(const res::PilotPtr& failed,
                                            const res::PilotPtr& replacement) {
  if (!running_.load(std::memory_order_acquire)) return;
  MutexLock lock(wiring_mutex_);
  bool rebound = false;
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    if (failed.get() != stages_[k].pilot.get()) continue;
    stages_[k].pilot = replacement;
    rebound = true;
    // Respawn the stage's tasks on the replacement cluster. The new
    // consumers rejoin the stage's group, trigger a rebalance, and resume
    // from the committed offsets; uncommitted records are redelivered and
    // absorbed by the message-id dedup (effectively-once survives the
    // failover). The old tasks' handled counts stay, so the stage still
    // drains once it has handled everything upstream passed on.
    const std::size_t n = stage_tasks(k);
    PE_LOG_INFO("pipeline " << id_ << ": " << stages_[k].name << " pilot "
                            << failed->id() << " replaced by "
                            << replacement->id() << "; respawning " << n
                            << " tasks");
    if (auto s = scale_stage_locked(k, n); !s.ok()) {
      PE_LOG_WARN("pipeline " << id_ << ": " << stages_[k].name
                              << " respawn failed: " << s.to_string());
    }
  }
  if (rebound) {
    recoveries_.fetch_add(1);
    return;
  }
  if (broker_pilot_ && failed.get() == broker_pilot_.get()) {
    // The broker's retained log died with the pilot; transparently
    // re-binding would silently lose data, so only warn.
    PE_LOG_WARN("pipeline " << id_ << ": broker pilot " << failed->id()
                            << " replaced, but broker state rebinding is "
                               "unsupported — run will not recover");
    return;
  }
  for (auto& p : edge_pilots_) {
    if (p.get() == failed.get()) {
      p = replacement;
      recoveries_.fetch_add(1);
      // Producers on the failed pilot already terminated and decremented
      // producers_running_; restarting them would duplicate data, so the
      // replacement only serves future scale-out.
      PE_LOG_INFO("pipeline " << id_ << ": edge pilot " << failed->id()
                              << " replaced by " << replacement->id()
                              << " (producers not restarted)");
    }
  }
}

std::size_t EdgeToCloudPipeline::stage_tasks(std::size_t stage) const {
  return stages_[stage].tasks != 0 ? stages_[stage].tasks
                                   : effective_partitions_;
}

exec::TaskSpec EdgeToCloudPipeline::make_processing_task(
    std::size_t stage, std::size_t task_index) {
  exec::TaskSpec spec;
  spec.name =
      id_ + "-" + stages_[stage].name + "-" + std::to_string(task_index);
  spec.cores = 1;
  spec.memory_gb = 2.0;
  const net::SiteId site = stages_[stage].pilot->site();
  spec.fn = [this, stage, task_index, site](exec::TaskContext& tctx) {
    return processing_body(tctx, stage, task_index, site);
  };
  return spec;
}

Status EdgeToCloudPipeline::scale_processing(std::size_t count) {
  MutexLock lock(wiring_mutex_);
  return scale_stage_locked(stages_.size() - 1, count);
}

Status EdgeToCloudPipeline::scale_stage_locked(std::size_t stage,
                                               std::size_t count) {
  if (!running_.load()) {
    return Status::FailedPrecondition("pipeline not running");
  }
  auto cluster = stages_[stage].pilot->cluster();
  if (!cluster) {
    return Status::Internal("stage '" + stages_[stage].name +
                            "' pilot without cluster");
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto handle = cluster->submit(make_processing_task(
        stage, stage_states_[stage]->spawned.fetch_add(1)));
    if (!handle.ok()) return handle.status();
    processing_handles_.push_back(std::move(handle).value());
  }
  return Status::Ok();
}

void EdgeToCloudPipeline::replace_process_cloud_function(
    ProcessFnFactory factory) {
  {
    MutexLock lock(wiring_mutex_);
    stages_.back().process = std::move(factory);
  }
  cloud_factory_generation_.fetch_add(1, std::memory_order_release);
  PE_LOG_INFO("pipeline " << id_ << ": cloud processing function replaced");
}

Status EdgeToCloudPipeline::producer_body(exec::TaskContext& tctx,
                                          std::size_t device_index,
                                          const net::SiteId& site) {
  const std::string device_id = "device-" + std::to_string(device_index);
  ProduceFn produce = produce_factory_(device_index);
  ProcessFn edge_process;
  if (edge_factory_ && config_.mode != DeploymentMode::kCloudCentric) {
    edge_process = edge_factory_();
  }
  broker::Producer producer(broker_, fabric_, site, tctx.stop_flag());
  std::unique_ptr<mqtt::MqttClient> mqtt_client;
  if (config_.ingest == IngestPath::kMqttBridge) {
    mqtt_client = std::make_unique<mqtt::MqttClient>(
        mqtt_broker_, fabric_, site, id_ + "-" + device_id);
    if (auto c = mqtt_client->connect(); !c.ok()) return c.status();
  }

  std::shared_ptr<ps::ParameterClient> param_client;
  if (param_server_) {
    param_client =
        std::make_shared<ps::ParameterClient>(param_server_, fabric_, site);
  }
  FunctionContext fctx;
  fctx.params().merge_from(config_.function_context);
  fctx.bind(id_, device_id, site, param_client, tctx.stop_flag());

  const std::uint32_t partition = static_cast<std::uint32_t>(
      device_index % effective_partitions_);

  for (std::size_t m = 0; m < config_.messages_per_device; ++m) {
    if (tctx.stop_requested()) {
      return Status::Cancelled("producer stopped");
    }
    fctx.set_invocation(m);
    auto block_result = produce(fctx);
    if (!block_result.ok()) {
      if (block_result.status().code() == StatusCode::kCancelled) break;
      errors_.fetch_add(1);
      return block_result.status();
    }
    data::DataBlock block = std::move(block_result).value();
    block.message_id = next_message_id();
    block.producer_id = device_id;
    block.produced_ns = Clock::now_ns();
    collector_->on_produced(block.message_id, device_id, partition,
                            block.value_bytes(), block.rows,
                            block.produced_ns);

    if (edge_process) {
      auto processed = edge_process(fctx, std::move(block));
      if (!processed.ok()) {
        errors_.fetch_add(1);
        return processed.status();
      }
      block = std::move(processed.value().block);
      outliers_.fetch_add(processed.value().outliers);
      collector_->on_edge_processed(block.message_id, Clock::now_ns());
    }

    const std::uint64_t message_id = block.message_id;
    if (mqtt_client) {
      mqtt::Message m;
      m.topic = "pe/" + id_ + "/" + device_id;
      m.payload = data::Codec::encode(block);
      m.qos = mqtt::QoS::kAtLeastOnce;
      m.publish_ns = block.produced_ns;
      if (auto s = mqtt_client->publish(std::move(m)); !s.ok()) {
        errors_.fetch_add(1);
        return s;
      }
    } else {
      broker::Record record;
      record.key = device_id;
      record.client_timestamp_ns = block.produced_ns;
      record.value = data::Codec::encode_shared(block);
      // The producer rides out transient broker failures (an offline
      // partition, a partitioned link) by the client retry policy, until
      // the task is stopped (CANCELLED, not an error).
      if (auto meta = producer.send(config_.topic, partition,
                                    std::move(record));
          !meta.ok()) {
        const bool stopped = meta.status().code() == StatusCode::kCancelled;
        if (!stopped) errors_.fetch_add(1);
        return meta.status();
      }
    }
    collector_->on_sent(message_id, Clock::now_ns());
    produced_.fetch_add(1);

    if (config_.produce_interval > Duration::zero()) {
      Clock::sleep_scaled(config_.produce_interval);
    }
  }
  return Status::Ok();
}

Status EdgeToCloudPipeline::processing_body(exec::TaskContext& tctx,
                                            std::size_t stage,
                                            std::size_t task_index,
                                            const net::SiteId& site) {
  StageState& state = *stage_states_[stage];
  const bool terminal = stage + 1 == stage_states_.size();
  const std::string topic = stage_topic(stage);
  const std::string next_topic = terminal ? "" : stage_topic(stage + 1);

  // Factories are user code: copy under the lock, call outside it.
  ProcessFnFactory factory;
  std::string task_id;
  std::uint64_t local_generation;
  {
    MutexLock lock(wiring_mutex_);
    factory = stages_[stage].process;
    task_id = stages_[stage].name + "-" + std::to_string(task_index);
    local_generation = cloud_factory_generation_.load();
  }
  ProcessFn process = factory();

  broker::ConsumerConfig consumer_config;
  consumer_config.max_poll_records = 16;
  std::string group = "group-" + id_;
  if (stage != 0) group += "-" + std::to_string(stage);
  broker::Consumer consumer(broker_, fabric_, site, group, consumer_config,
                            tctx.stop_flag());
  if (auto s = consumer.subscribe({topic}); !s.ok()) return s;
  consumers_joined_.fetch_add(1);
  // No fetch before the startup barrier releases: the first poll after it
  // adopts the final assignment before it fetches.
  while (!groups_formed_.load() && !tctx.stop_requested()) {
    std::this_thread::sleep_for(kStartupBarrierStep);
  }
  // Forwarding stages send to the next stage's topic; the cloud stage
  // may publish ResultRecords.
  std::unique_ptr<broker::Producer> producer;
  if (!terminal || config_.emit_results) {
    producer = std::make_unique<broker::Producer>(broker_, fabric_, site,
                                                  tctx.stop_flag());
  }

  std::shared_ptr<ps::ParameterClient> param_client;
  if (param_server_) {
    param_client =
        std::make_shared<ps::ParameterClient>(param_server_, fabric_, site);
  }
  FunctionContext fctx;
  fctx.params().merge_from(config_.function_context);
  fctx.bind(id_, task_id, site, param_client, tctx.stop_flag());

  std::uint64_t invocation = 0;
  while (!tctx.stop_requested() && !stage_done(stage)) {
    // Hot-swap: pick up a replaced processing function (paper: functions
    // can be exchanged at runtime without a new pilot).
    if (terminal && cloud_factory_generation_.load(
                        std::memory_order_acquire) != local_generation) {
      {
        MutexLock lock(wiring_mutex_);
        factory = stages_[stage].process;
        local_generation = cloud_factory_generation_.load();
      }
      process = factory();
    }

    auto records = consumer.poll(config_.poll_timeout);
    for (auto& record : records) {
      const std::uint64_t now = Clock::now_ns();
      auto decoded = data::Codec::decode(record.record.value);
      if (!decoded.ok()) {
        state.errors.fetch_add(1);
        state.handled.fetch_add(1);  // count it as handled so the run drains
        PE_LOG_WARN("decode failed: " << decoded.status().to_string());
        continue;
      }
      data::DataBlock block = std::move(decoded).value();
      {
        // Effectively-once: skip broker redeliveries (rebalances can
        // redeliver records consumed but not yet committed).
        MutexLock lock(state.seen_mutex);
        if (!state.seen.insert(block.message_id).second) {
          duplicates_.fetch_add(1);
          continue;
        }
      }
      const std::uint64_t message_id = block.message_id;
      // The span covers the chain: the first stage stamps broker arrival
      // and process start, the cloud stage stamps process end.
      if (stage == 0) {
        collector_->on_broker(message_id, record.broker_timestamp_ns);
        collector_->on_consumed(message_id, now);
      }

      fctx.set_invocation(invocation++);
      const std::uint64_t start_ns = Clock::now_ns();
      if (stage == 0) collector_->on_process_start(message_id, start_ns);
      // Transient processing failures are retried in place. process()
      // consumes its block, so the first attempt takes the decoded one and
      // a retry decodes the record again (its payload is still held);
      // non-transient failures and exhausted retries route the original
      // record to the dead-letter topic.
      auto result = process(fctx, std::move(block));
      for (std::uint32_t attempt = 0;
           !result.ok() && result.status().is_transient() &&
           attempt < config_.processing_retries && !tctx.stop_requested();
           ++attempt) {
        auto again = data::Codec::decode(record.record.value);
        result = again.ok() ? process(fctx, std::move(again).value())
                            : Result<ProcessResult>(again.status());
      }
      const std::uint64_t end_ns = Clock::now_ns();
      if (terminal) collector_->on_process_end(message_id, end_ns);
      state.process_ns.fetch_add(end_ns - start_ns);

      Status outcome = result.status();
      if (outcome.ok()) {
        outliers_.fetch_add(result.value().outliers);
        if (!terminal) {
          data::DataBlock forward = std::move(result.value().block);
          forward.message_id = message_id;  // identity survives the chain
          broker::Record out;
          out.key = forward.producer_id;
          out.client_timestamp_ns = forward.produced_ns;
          out.value = data::Codec::encode_shared(forward);
          auto partition = broker_->select_partition(next_topic, out);
          outcome = partition.ok()
                        ? producer->send(next_topic, partition.value(),
                                         std::move(out))
                              .status()
                        : partition.status();
        } else if (producer) {
          if (auto meta = producer->send(
                  results_topic(), record.partition,
                  result_record(message_id, result.value()));
              !meta.ok()) {
            PE_LOG_WARN("result emit failed: "
                        << meta.status().to_string());
          }
        }
      }
      // `out` before `handled`: once a stage is done, its `out` is final
      // for the stage downstream.
      if (outcome.ok()) {
        state.out.fetch_add(1);
      } else if (outcome.code() == StatusCode::kCancelled &&
                 tctx.stop_requested()) {
        break;  // a forward cut short by stop: not handled, not dead-lettered
      } else {
        state.errors.fetch_add(1);
        dead_letter_record(record, outcome);
      }
      state.handled.fetch_add(1);
      if (tctx.stop_requested()) break;
    }
  }
  return Status::Ok();
}

void EdgeToCloudPipeline::dead_letter_record(
    const broker::ConsumedRecord& record, const Status& failure) {
  dead_lettered_.fetch_add(1);
  tel::MetricsRegistry::global().counter("pipeline.records_dead_lettered")
      .add();
  if (!broker_) return;
  if (auto s = broker_->dead_letter(record.topic, record.partition,
                                    record.record,
                                    std::string(to_string(failure.code())));
      !s.ok()) {
    PE_LOG_WARN("pipeline " << id_ << ": dead-letter of record "
                            << record.topic << "/" << record.partition << "@"
                            << record.offset
                            << " failed: " << s.to_string());
  } else {
    PE_LOG_WARN("pipeline " << id_ << ": record " << record.topic << "/"
                            << record.partition << "@" << record.offset
                            << " dead-lettered after "
                            << failure.to_string());
  }
}

bool EdgeToCloudPipeline::stage_done(std::size_t stage) const {
  // Upstream first: once it is done, its output count is final.
  const bool upstream_done =
      stage == 0 ? producers_done_.load(std::memory_order_acquire)
                 : stage_done(stage - 1);
  if (!upstream_done) return false;
  const std::uint64_t upstream =
      stage == 0 ? produced_.load() : stage_states_[stage - 1]->out.load();
  return stage_states_[stage]->handled.load() >= upstream;
}

Status EdgeToCloudPipeline::wait() {
  if (!running_.load()) return Status::FailedPrecondition("not running");
  // run_timeout is an *emulated* duration: divide by the time scale so a
  // failure scenario at 4x speed times out (or recovers) identically to
  // the same scenario in real time.
  const auto deadline = Clock::deadline_in(config_.run_timeout);
  // Wait for producers.
  for (auto& handle : producer_handles_) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Duration::zero() ||
        !handle.wait_for(std::chrono::duration_cast<Duration>(remaining))) {
      return Status::Timeout("producers did not finish in time");
    }
  }
  // Wait for the consumers to drain.
  while (!work_finished()) {
    if (Clock::now() >= deadline) {
      return Status::Timeout("processing did not drain in time");
    }
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }
  // Consumers exit on their own once work_finished() holds. Snapshot the
  // handles under the lock: recovery may have appended re-spawned tasks.
  std::vector<exec::TaskHandle> handles;
  {
    MutexLock lock(wiring_mutex_);
    handles = processing_handles_;
  }
  for (auto& handle : handles) {
    handle.request_stop();
  }
  for (auto& handle : handles) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Duration::zero() ||
        !handle.wait_for(std::chrono::duration_cast<Duration>(remaining))) {
      return Status::Timeout("processing tasks did not stop in time");
    }
  }
  return Status::Ok();
}

void EdgeToCloudPipeline::stop() {
  if (!running_.exchange(false)) return;
  if (pilot_manager_ != nullptr && replacement_sub_token_ != 0) {
    pilot_manager_->unsubscribe_replacements(replacement_sub_token_);
    replacement_sub_token_ = 0;
  }
  std::vector<exec::TaskHandle> handles;
  {
    MutexLock lock(wiring_mutex_);
    handles = processing_handles_;
  }
  for (auto& handle : producer_handles_) handle.request_stop();
  for (auto& handle : handles) handle.request_stop();
  for (auto& handle : producer_handles_) {
    (void)handle.wait_for(std::chrono::seconds(30));
  }
  for (auto& handle : handles) {
    (void)handle.wait_for(std::chrono::seconds(30));
  }
  if (mqtt_bridge_) {
    mqtt_bridge_->shutdown();
    mqtt_bridge_.reset();
  }
  mqtt_broker_.reset();
}

PipelineRunReport EdgeToCloudPipeline::report(const std::string& label) const {
  PipelineRunReport out;
  if (collector_) {
    out.run = collector_->report(label.empty() ? id_ : label);
  }
  out.messages_produced = produced_.load();
  out.messages_processed = messages_processed();
  out.outliers_detected = outliers_.load();
  out.processing_errors = errors_.load();
  out.duplicates_skipped = duplicates_.load();
  out.messages_dead_lettered = dead_lettered_.load();
  out.pilot_recoveries = recoveries_.load();
  if (broker_) out.broker = broker_->stats();
  if (param_server_) out.parameter_server = param_server_->stats();
  MutexLock lock(wiring_mutex_);
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    const StageState& state = *stage_states_[k];
    StageReport stage;
    stage.name = stages_[k].name;
    stage.messages_in = state.handled.load();
    stage.messages_out = state.out.load();
    stage.errors = state.errors.load();
    if (stage.messages_in != 0) {
      stage.mean_processing_ms = static_cast<double>(state.process_ns.load()) /
                                 1e6 /
                                 static_cast<double>(stage.messages_in);
    }
    out.processing_errors += stage.errors;
    out.stages.push_back(std::move(stage));
  }
  return out;
}

Result<PipelineRunReport> EdgeToCloudPipeline::run() {
  if (auto s = start(); !s.ok()) return s;
  const Status wait_status = wait();
  stop();
  PipelineRunReport out = report();
  out.status = wait_status;
  if (!wait_status.ok() &&
      wait_status.code() != StatusCode::kTimeout) {
    return wait_status;
  }
  return out;
}

std::shared_ptr<ps::ParameterServer> EdgeToCloudPipeline::parameter_server()
    const {
  return param_server_;
}

std::string PipelineRunReport::to_string() const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(2);
  const std::uint64_t completed = stages.empty() ? 0 : stages.back().messages_out;
  oss << "pipeline run: " << messages_produced << " produced, " << completed
      << " completed chain; e2e " << run.end_to_end_ms.mean << " ms mean (p99 "
      << run.end_to_end_ms.p99 << ")\n";
  for (const auto& stage : stages) {
    oss << "  stage " << stage.name << ": in " << stage.messages_in
        << ", out " << stage.messages_out << ", errors " << stage.errors
        << ", proc " << stage.mean_processing_ms << " ms\n";
  }
  return oss.str();
}

}  // namespace pe::core
