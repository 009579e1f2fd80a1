// Pipeline behaviour under mid-run resource failures.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "core/functions.h"
#include "core/pipeline.h"
#include "resource/pilot_manager.h"

namespace pe::core {
namespace {

class PipelineFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = net::Fabric::make_single_site_topology();
    res::PilotManagerOptions options;
    options.startup_delay_factor = 0.0005;
    manager_ = std::make_unique<res::PilotManager>(fabric_, options);
    edge_ = manager_
                ->submit(res::Flavors::make("lrz-eu", res::Backend::kCloudVm,
                                            2, 8.0))
                .value();
    cloud_ = manager_->submit(res::Flavors::lrz_large()).value();
    broker_ = manager_
                  ->submit(res::Flavors::make(
                      "lrz-eu", res::Backend::kBrokerService, 2, 8.0))
                  .value();
    ASSERT_TRUE(manager_->wait_all_active().ok());
  }
  std::shared_ptr<net::Fabric> fabric_;
  std::unique_ptr<res::PilotManager> manager_;
  res::PilotPtr edge_, cloud_, broker_;
};

TEST_F(PipelineFailureTest, CloudPilotLossSurfacesAsTimeoutNotHang) {
  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 200;
  config.rows_per_message = 100;
  config.produce_interval = std::chrono::milliseconds(2);
  config.run_timeout = std::chrono::seconds(3);  // bound the damage
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge_)
      .set_pilot_cloud_processing(cloud_)
      .set_pilot_cloud_broker(broker_)
      .set_produce_function(functions::make_generator_produce({}, 100))
      .set_process_cloud_function(functions::make_passthrough_process());
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_processed() < 5) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }

  // The processing VM is preempted mid-run.
  ASSERT_TRUE(cloud_->inject_failure("spot preemption").ok());

  const Status status = pipeline.wait();
  // Producers may finish, but processing can never drain: a bounded
  // TIMEOUT (not a hang, not a crash).
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  pipeline.stop();
  const auto report = pipeline.report("after-failure");
  EXPECT_GT(report.messages_processed, 0u);
  EXPECT_LT(report.messages_processed, report.messages_produced);
}

TEST_F(PipelineFailureTest, EdgePilotLossStopsProductionButDrainsCleanly) {
  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 100000;  // would run forever
  config.rows_per_message = 100;
  config.produce_interval = std::chrono::milliseconds(2);
  config.run_timeout = std::chrono::seconds(10);
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge_)
      .set_pilot_cloud_processing(cloud_)
      .set_pilot_cloud_broker(broker_)
      .set_produce_function(functions::make_generator_produce({}, 100))
      .set_process_cloud_function(functions::make_passthrough_process());
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_processed() < 5) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }

  // The edge device dies: production ends, in-flight data still drains.
  ASSERT_TRUE(edge_->inject_failure("device power loss").ok());
  const Status status = pipeline.wait();
  EXPECT_TRUE(status.ok()) << status.to_string();
  pipeline.stop();
  const auto report = pipeline.report("edge-loss");
  // Everything produced before the loss was processed.
  EXPECT_EQ(report.messages_processed, report.messages_produced);
  EXPECT_GT(report.messages_processed, 0u);
}

TEST_F(PipelineFailureTest, CloudPilotLossRecoversWhenEnabled) {
  // Same failure as CloudPilotLossSurfacesAsTimeoutNotHang, but with a
  // recovery-enabled manager driving re-provisioning and the pipeline
  // opted into re-binding: the run must complete cleanly.
  res::PilotManagerOptions options;
  options.startup_delay_factor = 0.0005;
  options.auto_reprovision = true;
  options.heartbeat_interval = std::chrono::milliseconds(5);
  options.reprovision_backoff = std::chrono::milliseconds(1);
  res::PilotManager manager(fabric_, options);
  auto edge = manager
                  .submit(res::Flavors::make("lrz-eu", res::Backend::kCloudVm,
                                             2, 8.0))
                  .value();
  auto cloud = manager.submit(res::Flavors::lrz_large()).value();
  auto broker = manager
                    .submit(res::Flavors::make(
                        "lrz-eu", res::Backend::kBrokerService, 2, 8.0))
                    .value();
  ASSERT_TRUE(manager.wait_all_active().ok());

  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 200;
  config.rows_per_message = 100;
  config.produce_interval = std::chrono::milliseconds(2);
  config.run_timeout = std::chrono::seconds(30);
  config.auto_recover = true;
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge)
      .set_pilot_cloud_processing(cloud)
      .set_pilot_cloud_broker(broker)
      .set_pilot_manager(&manager)
      .set_produce_function(functions::make_generator_produce({}, 100))
      .set_process_cloud_function(functions::make_passthrough_process());
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_processed() < 5) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }

  ASSERT_TRUE(cloud->inject_failure("spot preemption").ok());

  const Status status = pipeline.wait();
  EXPECT_TRUE(status.ok()) << status.to_string();
  pipeline.stop();
  const auto report = pipeline.report("cloud-loss-recovered");
  // Every produced message was processed: the replacement pilot's
  // consumers rejoined the group and resumed, with redelivered records
  // absorbed by message-id deduplication.
  EXPECT_EQ(report.messages_produced, 200u);
  EXPECT_EQ(report.messages_processed, report.messages_produced);
  EXPECT_EQ(report.messages_dead_lettered, 0u);
  EXPECT_EQ(report.pilot_recoveries, 1u);
  EXPECT_EQ(manager.reprovision_count(), 1u);
}

TEST_F(PipelineFailureTest, ForwardingStagePilotLossIsRecoveredInChain) {
  // A forwarding stage between the devices and the cloud stage loses its
  // pilot mid-run. With auto_recover the stage's tasks are respawned on the
  // replacement and the chain still drains every message exactly once.
  res::PilotManagerOptions options;
  options.startup_delay_factor = 0.0005;
  options.auto_reprovision = true;
  options.heartbeat_interval = std::chrono::milliseconds(5);
  options.reprovision_backoff = std::chrono::milliseconds(1);
  res::PilotManager manager(fabric_, options);
  auto edge = manager
                  .submit(res::Flavors::make("lrz-eu", res::Backend::kCloudVm,
                                             2, 8.0))
                  .value();
  auto fog = manager
                 .submit(res::Flavors::make("lrz-eu", res::Backend::kCloudVm,
                                            2, 8.0))
                 .value();
  auto cloud = manager.submit(res::Flavors::lrz_large()).value();
  auto broker = manager
                    .submit(res::Flavors::make(
                        "lrz-eu", res::Backend::kBrokerService, 2, 8.0))
                    .value();
  ASSERT_TRUE(manager.wait_all_active().ok());

  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 200;
  config.rows_per_message = 100;
  config.produce_interval = std::chrono::milliseconds(2);
  config.run_timeout = std::chrono::seconds(30);
  config.auto_recover = true;
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge)
      .set_pilot_cloud_processing(cloud)
      .set_pilot_cloud_broker(broker)
      .set_pilot_manager(&manager)
      .set_produce_function(functions::make_generator_produce({}, 100))
      .add_stage({.name = "fog",
                  .pilot = fog,
                  .process = functions::make_passthrough_process()})
      .set_process_cloud_function(functions::make_passthrough_process());
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_processed() < 5) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }

  ASSERT_TRUE(fog->inject_failure("spot preemption").ok());

  const Status status = pipeline.wait();
  EXPECT_TRUE(status.ok()) << status.to_string();
  pipeline.stop();
  const auto report = pipeline.report("fog-loss-recovered");
  EXPECT_EQ(report.messages_produced, 200u);
  EXPECT_EQ(report.messages_processed, report.messages_produced);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].messages_in, 200u);
  EXPECT_EQ(report.stages[0].messages_out, 200u);
  EXPECT_EQ(report.stages[1].messages_out, 200u);
  EXPECT_EQ(report.messages_dead_lettered, 0u);
  EXPECT_EQ(report.pilot_recoveries, 1u);
  EXPECT_EQ(manager.reprovision_count(), 1u);
}

TEST_F(PipelineFailureTest, PoisonRecordsAreDeadLetteredAndRunDrains) {
  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 100;
  config.rows_per_message = 50;
  config.run_timeout = std::chrono::seconds(20);
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge_)
      .set_pilot_cloud_processing(cloud_)
      .set_pilot_cloud_broker(broker_)
      .set_produce_function(functions::make_generator_produce({}, 50))
      // Every fifth message is poison: a deterministic (non-transient)
      // failure that must be dead-lettered, not retried forever.
      .set_process_cloud_function(shared_process_fn(
          [](FunctionContext&, data::DataBlock block) -> Result<ProcessResult> {
            if (block.message_id % 5 == 0) {
              return Status::Internal("poison record");
            }
            ProcessResult out;
            out.block = std::move(block);
            return out;
          }));
  const auto result = pipeline.run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& report = result.value();
  // Message ids are contiguous for the run, so exactly 1 in 5 is poison.
  EXPECT_EQ(report.messages_produced, 100u);
  EXPECT_EQ(report.messages_processed, report.messages_produced);
  EXPECT_EQ(report.messages_dead_lettered, 20u);
  EXPECT_EQ(report.broker.records_dead_lettered, 20u);
}

TEST_F(PipelineFailureTest, TransientProcessingFailuresRetryInPlace) {
  PipelineConfig config;
  config.edge_devices = 1;
  config.messages_per_device = 50;
  config.rows_per_message = 50;
  config.run_timeout = std::chrono::seconds(20);
  config.processing_retries = 2;

  // Every message fails with UNAVAILABLE on its first attempt and succeeds
  // on retry — nothing may reach the DLQ. The first attempt scribbles on
  // the block it was handed before failing; the retry must still see the
  // block as it was consumed (same id, rows and values).
  struct Seen {
    std::size_t rows = 0;
    std::uint64_t checksum = 0;
  };
  auto mutex = std::make_shared<std::mutex>();
  auto first_attempt = std::make_shared<std::map<std::uint64_t, Seen>>();
  auto retries_matching = std::make_shared<std::size_t>(0);
  const auto checksum = [](const data::DataBlock& block) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the values
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(block.values.data());
    for (std::size_t i = 0; i < block.values.size() * sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
    return h;
  };
  EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric_)
      .set_pilot_edge(edge_)
      .set_pilot_cloud_processing(cloud_)
      .set_pilot_cloud_broker(broker_)
      .set_produce_function(functions::make_generator_produce({}, 50))
      .set_process_cloud_function(shared_process_fn(
          [mutex, first_attempt, retries_matching, checksum](
              FunctionContext&, data::DataBlock block)
              -> Result<ProcessResult> {
            {
              std::lock_guard<std::mutex> lock(*mutex);
              const Seen now{block.rows, checksum(block)};
              auto [it, first] =
                  first_attempt->emplace(block.message_id, now);
              if (first) {
                block.rows = 0;
                block.values.assign(block.values.size(), -1.0);
                return Status::Unavailable("transient glitch");
              }
              if (it->second.rows == now.rows && now.rows == 50 &&
                  it->second.checksum == now.checksum) {
                *retries_matching += 1;
              }
            }
            ProcessResult out;
            out.block = std::move(block);
            return out;
          }));
  const auto result = pipeline.run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& report = result.value();
  EXPECT_EQ(report.messages_produced, 50u);
  EXPECT_EQ(report.messages_processed, 50u);
  EXPECT_EQ(report.messages_dead_lettered, 0u);
  std::lock_guard<std::mutex> lock(*mutex);
  EXPECT_EQ(first_attempt->size(), 50u);
  EXPECT_EQ(*retries_matching, 50u);
}

}  // namespace
}  // namespace pe::core
