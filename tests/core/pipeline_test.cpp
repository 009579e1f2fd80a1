// End-to-end pipeline tests on a single-site fabric (fast paths).
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "core/functions.h"

namespace pe::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = net::Fabric::make_single_site_topology();
    ASSERT_TRUE(
        fabric_->add_site({.id = "edge", .kind = net::SiteKind::kEdge}).ok());
    net::LinkSpec metro;
    metro.from = "edge";
    metro.to = "lrz-eu";
    metro.latency_min = metro.latency_max = std::chrono::microseconds(500);
    metro.bandwidth_min_bps = metro.bandwidth_max_bps = 1e9;
    ASSERT_TRUE(fabric_->add_bidirectional_link(metro).ok());

    res::PilotManagerOptions options;
    options.startup_delay_factor = 0.0005;
    manager_ = std::make_unique<res::PilotManager>(fabric_, options);

    edge_ = manager_->submit(res::Flavors::raspi("edge", 4)).value();
    cloud_ = manager_->submit(res::Flavors::lrz_large()).value();
    broker_ = manager_
                  ->submit(res::Flavors::make(
                      "lrz-eu", res::Backend::kBrokerService, 4, 16.0))
                  .value();
    ASSERT_TRUE(manager_->wait_all_active().ok());
  }

  PipelineConfig small_config(std::size_t devices = 2,
                              std::size_t messages = 4,
                              std::size_t rows = 50) {
    PipelineConfig config;
    config.edge_devices = devices;
    config.messages_per_device = messages;
    config.rows_per_message = rows;
    config.run_timeout = std::chrono::seconds(60);
    return config;
  }

  void wire(EdgeToCloudPipeline& pipeline) {
    pipeline.set_fabric(fabric_)
        .set_pilot_edge(edge_)
        .set_pilot_cloud_processing(cloud_)
        .set_pilot_cloud_broker(broker_)
        .set_produce_function(functions::make_generator_produce({}, 50))
        .set_process_cloud_function(functions::make_passthrough_process());
  }

  std::shared_ptr<net::Fabric> fabric_;
  std::unique_ptr<res::PilotManager> manager_;
  res::PilotPtr edge_, cloud_, broker_;
};

TEST_F(PipelineTest, BaselineRunProcessesEveryMessage) {
  EdgeToCloudPipeline pipeline(small_config(2, 5));
  wire(pipeline);
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().status.ok()) << report.value().status.to_string();
  EXPECT_EQ(report.value().messages_produced, 10u);
  EXPECT_EQ(report.value().messages_processed, 10u);
  EXPECT_EQ(report.value().processing_errors, 0u);
  EXPECT_EQ(report.value().run.messages, 10u);
  EXPECT_GT(report.value().run.messages_per_second, 0.0);
  EXPECT_GT(report.value().run.end_to_end_ms.mean, 0.0);
  EXPECT_EQ(report.value().broker.records_in, 10u);
  // At-least-once: rebalance redeliveries may re-fetch some records (the
  // pipeline deduplicates them by message id).
  EXPECT_GE(report.value().broker.records_out, 10u);
}

// A fault-free run delivers every record once. start() launches the
// producers only after every processing consumer has joined its group, and
// no consumer polls before that; otherwise the first member fetches a
// partition that the second then re-reads from the uncommitted start.
TEST_F(PipelineTest, FaultFreeRunsRedeliverNothing) {
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE(run);
    auto config = small_config(4, 500, 25);
    config.partitions = 2;
    config.processing_tasks = 2;
    config.topic = "pe-startup-" + std::to_string(run);
    EdgeToCloudPipeline pipeline(config);
    wire(pipeline);
    auto report = pipeline.run();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().messages_processed, 2000u);
    EXPECT_EQ(report.value().duplicates_skipped, 0u);
  }
}

TEST_F(PipelineTest, ValidationCatchesMissingPieces) {
  {
    EdgeToCloudPipeline p(small_config());
    EXPECT_EQ(p.run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    EdgeToCloudPipeline p(small_config());
    p.set_fabric(fabric_).set_pilot_edge(edge_).set_pilot_cloud_processing(
        cloud_);
    // no broker pilot
    EXPECT_EQ(p.run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    EdgeToCloudPipeline p(small_config());
    p.set_fabric(fabric_)
        .set_pilot_edge(edge_)
        .set_pilot_cloud_processing(cloud_)
        .set_pilot_cloud_broker(cloud_);  // not a broker pilot
    p.set_produce_function(functions::make_generator_produce({}, 10));
    p.set_process_cloud_function(functions::make_passthrough_process());
    EXPECT_EQ(p.run().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PipelineTest, HybridModeRequiresEdgeFunction) {
  auto config = small_config();
  config.mode = DeploymentMode::kHybrid;
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  EXPECT_EQ(pipeline.run().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, HybridModeShrinksTransferredBytes) {
  auto config = small_config(1, 4, 100);
  config.mode = DeploymentMode::kHybrid;
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  pipeline.set_process_edge_function(functions::make_aggregate_edge(4));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().messages_processed, 4u);
  // 100-row blocks aggregated to 25 rows before the broker.
  const auto bytes_per_message =
      report.value().broker.bytes_in / report.value().broker.records_in;
  EXPECT_LT(bytes_per_message, 100 * 32 * 8 / 2);
}

TEST_F(PipelineTest, KMeansProcessingFlagsOutliers) {
  auto config = small_config(1, 6, 200);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  pipeline.set_process_cloud_function(
      functions::make_model_process(ml::ModelKind::kKMeans));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().messages_processed, 6u);
  EXPECT_GT(report.value().outliers_detected, 0u);
  EXPECT_GT(report.value().run.processing_ms.mean, 0.0);
}

TEST_F(PipelineTest, PartitionsDefaultToOnePerDevice) {
  EdgeToCloudPipeline pipeline(small_config(3, 2));
  wire(pipeline);
  ASSERT_TRUE(pipeline.start().ok());
  EXPECT_EQ(broker_->broker()->partition_count("pe-data"), 3u);
  ASSERT_TRUE(pipeline.wait().ok());
  pipeline.stop();
}

TEST_F(PipelineTest, ExplicitPartitionCountHonored) {
  auto config = small_config(4, 2);
  config.partitions = 2;
  config.topic = "pe-two-part";
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(broker_->broker()->partition_count("pe-two-part"), 2u);
  EXPECT_EQ(report.value().messages_processed, 8u);
}

TEST_F(PipelineTest, RuntimeFunctionReplacementTakesEffect) {
  auto config = small_config(1, 30, 20);
  config.produce_interval = std::chrono::milliseconds(5);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);

  std::atomic<std::uint64_t> new_fn_invocations{0};
  ASSERT_TRUE(pipeline.start().ok());
  // Let some messages flow with the original function, then hot-swap.
  while (pipeline.messages_processed() < 5) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }
  pipeline.replace_process_cloud_function([&new_fn_invocations]() {
    return [&new_fn_invocations](FunctionContext&, data::DataBlock block)
               -> Result<ProcessResult> {
      new_fn_invocations.fetch_add(1);
      ProcessResult result;
      result.block = std::move(block);
      return result;
    };
  });
  ASSERT_TRUE(pipeline.wait().ok());
  pipeline.stop();
  EXPECT_EQ(pipeline.messages_processed(), 30u);
  EXPECT_GT(new_fn_invocations.load(), 0u);
}

TEST_F(PipelineTest, ScaleProcessingAddsTasksAtRuntime) {
  auto config = small_config(2, 20, 20);
  config.processing_tasks = 1;
  config.produce_interval = std::chrono::milliseconds(2);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  ASSERT_TRUE(pipeline.start().ok());
  ASSERT_TRUE(pipeline.scale_processing(2).ok());
  ASSERT_TRUE(pipeline.wait().ok());
  pipeline.stop();
  EXPECT_EQ(pipeline.messages_processed(), 40u);
}

TEST_F(PipelineTest, ScaleProcessingWhileStoppedFails) {
  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  EXPECT_EQ(pipeline.scale_processing(1).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, StopMidRunTerminatesCleanly) {
  auto config = small_config(1, 10000, 50);  // would run a long time
  config.produce_interval = std::chrono::milliseconds(1);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_processed() < 3) {
    Clock::sleep_exact(std::chrono::milliseconds(2));
  }
  pipeline.stop();
  EXPECT_FALSE(pipeline.running());
  const auto report = pipeline.report("stopped");
  EXPECT_GT(report.messages_processed, 0u);
  EXPECT_LT(report.messages_produced, 10000u);
}

TEST_F(PipelineTest, DeviceRidesOutAPartitionOutage) {
  // The topic goes offline mid-run for far longer than a device's send
  // once waited (5 sleeps of 5 ms): the devices' producers ride it out by
  // the client retry policy, and the run completes without an error.
  auto config = small_config(2, 200);
  config.produce_interval = std::chrono::milliseconds(1);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  ASSERT_TRUE(pipeline.start().ok());
  while (pipeline.messages_produced() < 10) {
    Clock::sleep_exact(std::chrono::milliseconds(1));
  }
  auto broker = broker_->broker();
  const std::uint32_t partitions = broker->partition_count(config.topic);
  ASSERT_GT(partitions, 0u);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    ASSERT_TRUE(broker->set_partition_offline(config.topic, p, true).ok());
  }
  const std::uint64_t before = pipeline.messages_produced();
  Clock::sleep_exact(std::chrono::milliseconds(100));
  // Every device is held at its first send into the outage.
  EXPECT_LE(pipeline.messages_produced(), before + 2);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    ASSERT_TRUE(broker->set_partition_offline(config.topic, p, false).ok());
  }
  ASSERT_TRUE(pipeline.wait().ok());
  pipeline.stop();
  const auto report = pipeline.report();
  EXPECT_EQ(report.messages_produced, 400u);
  EXPECT_EQ(report.messages_processed, 400u);
  EXPECT_EQ(report.processing_errors, 0u);
}

TEST_F(PipelineTest, StopDuringPartitionOutageReturnsPromptly) {
  // Every device is held in its send's retries by an offline topic. The
  // pipeline's stop flag ends those retries at once, instead of leaving
  // stop() to wait out a retry budget of 16 s emulated.
  ScopedTimeScale real_time(1.0);
  auto config = small_config(2, 100);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  auto broker = broker_->broker();
  ASSERT_TRUE(
      broker->create_topic(config.topic, broker::TopicConfig{.partitions = 2})
          .ok());
  for (std::uint32_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(broker->set_partition_offline(config.topic, p, true).ok());
  }
  ASSERT_TRUE(pipeline.start().ok());
  Clock::sleep_exact(std::chrono::milliseconds(20));
  EXPECT_EQ(pipeline.messages_produced(), 0u);
  Stopwatch sw;
  pipeline.stop();
  EXPECT_LT(sw.elapsed_ms(), 100.0);
  EXPECT_FALSE(pipeline.running());
  EXPECT_EQ(pipeline.report().processing_errors, 0u);
}

TEST_F(PipelineTest, DoubleStartRejected) {
  EdgeToCloudPipeline pipeline(small_config(1, 2));
  wire(pipeline);
  ASSERT_TRUE(pipeline.start().ok());
  EXPECT_EQ(pipeline.start().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pipeline.wait().ok());
  pipeline.stop();
}

TEST_F(PipelineTest, ParameterServerDisabledWhenConfigured) {
  auto config = small_config(1, 2);
  config.enable_parameter_server = false;
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(pipeline.parameter_server(), nullptr);
}

TEST_F(PipelineTest, ModelUpdatesFlowThroughParameterService) {
  auto config = small_config(1, 8, 100);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  functions::ModelProcessOptions options;
  options.publish_interval = 2;
  pipeline.set_process_cloud_function(
      functions::make_model_process(ml::ModelKind::kKMeans, {}, options));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().parameter_server.sets, 0u);
  ASSERT_NE(pipeline.parameter_server(), nullptr);
  EXPECT_GE(pipeline.parameter_server()->size(), 1u);
}

TEST_F(PipelineTest, FunctionContextParamsReachHandlers) {
  auto config = small_config(1, 2);
  config.function_context.set("application", "unit-test");
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  std::atomic<bool> saw_param{false};
  pipeline.set_process_cloud_function(shared_process_fn(
      [&saw_param](FunctionContext& ctx,
                   data::DataBlock block) -> Result<ProcessResult> {
        if (ctx.params().get_or("application", "") == "unit-test") {
          saw_param.store(true);
        }
        ProcessResult result;
        result.block = std::move(block);
        return result;
      }));
  ASSERT_TRUE(pipeline.run().ok());
  EXPECT_TRUE(saw_param.load());
}

TEST_F(PipelineTest, ProduceFunctionCancellationEndsRunEarly) {
  auto config = small_config(1, 100);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  pipeline.set_produce_function(
      [](std::size_t) -> ProduceFn {
        auto count = std::make_shared<int>(0);
        return [count](FunctionContext&) -> Result<data::DataBlock> {
          if (++*count > 5) return Status::Cancelled("done early");
          data::Generator gen;
          return gen.generate(10);
        };
      });
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().messages_produced, 5u);
  EXPECT_EQ(report.value().messages_processed, 5u);
}

TEST_F(PipelineTest, ProcessingErrorsAreCountedNotFatal) {
  auto config = small_config(1, 4);
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  pipeline.set_process_cloud_function(shared_process_fn(
      [](FunctionContext&, data::DataBlock) -> Result<ProcessResult> {
        return Status::Internal("synthetic failure");
      }));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().processing_errors, 4u);
  EXPECT_EQ(report.value().messages_processed, 4u);  // handled, not stuck
}

}  // namespace
}  // namespace pe::core
