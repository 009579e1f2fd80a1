// N-layer chains: forwarding stages inserted before the cloud stage.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "core/functions.h"
#include "core/pipeline.h"
#include "data/codec.h"
#include "resource/pilot_manager.h"

namespace pe::core {
namespace {

class MultiStageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three-tier continuum: edge -> fog -> cloud, each its own site.
    fabric_ = std::make_shared<net::Fabric>();
    for (const char* site : {"edge", "fog", "cloud"}) {
      ASSERT_TRUE(fabric_->add_site({.id = site}).ok());
    }
    auto link = [&](const char* a, const char* b, int ms) {
      net::LinkSpec spec;
      spec.from = a;
      spec.to = b;
      spec.latency_min = spec.latency_max = std::chrono::milliseconds(ms);
      spec.bandwidth_min_bps = spec.bandwidth_max_bps = 1e9;
      ASSERT_TRUE(fabric_->add_bidirectional_link(spec).ok());
    };
    link("edge", "fog", 1);
    link("fog", "cloud", 2);
    link("edge", "cloud", 3);

    res::PilotManagerOptions options;
    options.startup_delay_factor = 0.0005;
    manager_ = std::make_unique<res::PilotManager>(fabric_, options);
    edge_ = manager_->submit(res::Flavors::raspi("edge", 4)).value();
    fog_ = manager_
               ->submit(res::Flavors::make("fog", res::Backend::kCloudVm, 4,
                                           16.0))
               .value();
    cloud_ = manager_->submit(res::Flavors::lrz_large("cloud")).value();
    broker_ = manager_
                  ->submit(res::Flavors::make(
                      "fog", res::Backend::kBrokerService, 4, 16.0))
                  .value();
    ASSERT_TRUE(manager_->wait_all_active().ok());
  }

  PipelineConfig small_config() {
    PipelineConfig config;
    config.edge_devices = 2;
    config.messages_per_device = 5;
    config.rows_per_message = 80;
    config.run_timeout = std::chrono::minutes(2);
    return config;
  }

  // Devices, broker and cloud pilot; the caller adds stages and the cloud
  // function.
  void wire(EdgeToCloudPipeline& pipeline) {
    pipeline.set_fabric(fabric_)
        .set_pilot_cloud_broker(broker_)
        .set_pilot_edge(edge_)
        .set_pilot_cloud_processing(cloud_)
        .set_produce_function(functions::make_generator_produce({}, 80));
  }

  std::shared_ptr<net::Fabric> fabric_;
  std::unique_ptr<res::PilotManager> manager_;
  res::PilotPtr edge_, fog_, cloud_, broker_;
};

TEST_F(MultiStageTest, ThreeTierChainCompletesEveryMessage) {
  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  pipeline
      .add_stage({.name = "fog-aggregate",
                  .pilot = fog_,
                  .process = functions::make_aggregate_edge(4)})
      .set_process_cloud_function(
          functions::make_model_process(ml::ModelKind::kKMeans));
  EXPECT_EQ(pipeline.stage_count(), 2u);

  auto report = pipeline.run();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().status.ok()) << report.value().status.to_string();
  EXPECT_EQ(report.value().messages_produced, 10u);
  ASSERT_EQ(report.value().stages.size(), 2u);
  EXPECT_EQ(report.value().stages.back().messages_out, 10u);
  EXPECT_EQ(report.value().stages[0].messages_in, 10u);
  EXPECT_EQ(report.value().stages[0].messages_out, 10u);
  EXPECT_EQ(report.value().stages[1].messages_in, 10u);
  EXPECT_EQ(report.value().stages[1].errors, 0u);
  EXPECT_GT(report.value().run.end_to_end_ms.mean, 0.0);
  EXPECT_EQ(report.value().run.end_to_end_ms.count, 10u);
}

TEST_F(MultiStageTest, FogStageShrinksBytesBeforeCloudHop) {
  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  pipeline
      .add_stage({.name = "fog-aggregate",
                  .pilot = fog_,
                  .process = functions::make_aggregate_edge(8)})
      .set_process_cloud_function(functions::make_passthrough_process());
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().status.ok());
  // The fog->cloud hop (stage-1 topic fetch by cloud consumers) carries
  // ~1/8 the bytes of the edge ingress.
  const auto links = fabric_->link_stats();
  const auto ingress = links.at("edge->fog").bytes;    // producers -> broker
  const auto egress = links.at("fog->cloud").bytes;    // broker -> cloud stage
  EXPECT_LT(egress, ingress / 3);
}

TEST_F(MultiStageTest, SingleStageDegeneratesToTwoLayerPipeline) {
  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  pipeline.set_process_cloud_function(
      functions::make_model_process(ml::ModelKind::kKMeans));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().stages.back().messages_out, 10u);
}

TEST_F(MultiStageTest, FourStageDeepChain) {
  auto config = small_config();
  config.messages_per_device = 3;
  config.processing_tasks = 1;  // the cloud stage, s3
  EdgeToCloudPipeline pipeline(config);
  wire(pipeline);
  // Four stages across the three sites; the cloud stage is the last.
  pipeline
      .add_stage({.name = "s0",
                  .pilot = fog_,
                  .process = functions::make_aggregate_edge(2)})
      .add_stage({.name = "s1",
                  .pilot = fog_,
                  .process = functions::make_passthrough_process(),
                  .tasks = 1})
      .add_stage({.name = "s2",
                  .pilot = cloud_,
                  .process = functions::make_aggregate_edge(2)})
      .set_process_cloud_function(
          functions::make_model_process(ml::ModelKind::kKMeans));
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().status.ok()) << report.value().status.to_string();
  EXPECT_EQ(report.value().stages.back().messages_out, 6u);
  ASSERT_EQ(report.value().stages.size(), 4u);
  for (const auto& stage : report.value().stages) {
    EXPECT_EQ(stage.messages_in, 6u) << stage.name;
  }
}

TEST_F(MultiStageTest, ValidationCatchesMissingPieces) {
  {
    EdgeToCloudPipeline pipeline(small_config());
    EXPECT_EQ(pipeline.run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    EdgeToCloudPipeline pipeline(small_config());
    pipeline.set_fabric(fabric_)
        .set_pilot_cloud_broker(broker_)
        .set_pilot_edge(edge_)
        .set_produce_function(functions::make_generator_produce({}, 10));
    // no processing stage
    EXPECT_EQ(pipeline.run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    EdgeToCloudPipeline pipeline(small_config());
    wire(pipeline);
    pipeline.set_process_cloud_function(functions::make_passthrough_process())
        .add_stage({.name = "no-pilot",
                    .pilot = nullptr,
                    .process = functions::make_passthrough_process()});
    EXPECT_EQ(pipeline.run().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(MultiStageTest, ReportToStringListsStages) {
  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  pipeline
      .add_stage({.name = "alpha",
                  .pilot = fog_,
                  .process = functions::make_passthrough_process()})
      .add_stage({.name = "omega",
                  .pilot = cloud_,
                  .process = functions::make_passthrough_process()})
      .set_process_cloud_function(functions::make_passthrough_process());
  auto report = pipeline.run();
  ASSERT_TRUE(report.ok());
  const std::string s = report.value().to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("omega"), std::string::npos);
  EXPECT_NE(s.find("completed chain"), std::string::npos);
}

// A middle stage that fails non-transiently routes the record to its input
// topic's dead-letter queue; the rest of the chain drains around it.
TEST_F(MultiStageTest, MiddleStageFailuresAreDeadLetteredAndChainDrains) {
  std::mutex mutex;
  std::set<std::uint64_t> seen_first, rejected, delivered;
  auto recording = [&mutex](std::set<std::uint64_t>& ids) {
    return shared_process_fn(
        [&mutex, &ids](FunctionContext&,
                       data::DataBlock block) -> Result<ProcessResult> {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(block.message_id);
          }
          ProcessResult out;
          out.block = std::move(block);
          return out;
        });
  };
  // Message ids are contiguous for the run, so exactly half are even.
  auto filter = shared_process_fn(
      [&](FunctionContext&, data::DataBlock block) -> Result<ProcessResult> {
        if (block.message_id % 2 == 0) {
          std::lock_guard<std::mutex> lock(mutex);
          rejected.insert(block.message_id);
          return Status::Internal("rejected by filter");
        }
        ProcessResult out;
        out.block = std::move(block);
        return out;
      });

  EdgeToCloudPipeline pipeline(small_config());
  wire(pipeline);
  pipeline
      .add_stage({.name = "fog-ingest", .pilot = fog_,
                  .process = recording(seen_first)})
      .add_stage({.name = "fog-filter", .pilot = fog_, .process = filter})
      .set_process_cloud_function(recording(delivered));
  auto result = pipeline.run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& report = result.value();
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();

  EXPECT_EQ(report.messages_produced, 10u);
  ASSERT_EQ(seen_first.size(), 10u);
  ASSERT_EQ(rejected.size(), 5u);
  EXPECT_EQ(report.messages_dead_lettered, rejected.size());
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[1].messages_in, 10u);
  EXPECT_EQ(report.stages[1].messages_out, 5u);
  EXPECT_EQ(report.stages[1].errors, 5u);

  // The rejected records sit in the middle stage's input-topic DLQ.
  broker::FetchSpec spec;
  spec.max_records = 100;
  auto dlq = broker_->broker()->fetch(
      broker::dead_letter_topic_name(pipeline.stage_topic(1)), 0, spec);
  ASSERT_TRUE(dlq.ok()) << dlq.status().to_string();
  std::set<std::uint64_t> dead;
  for (const auto& record : dlq.value()) {
    auto block = data::Codec::decode(record.record.value);
    ASSERT_TRUE(block.ok());
    dead.insert(block.value().message_id);
  }
  EXPECT_EQ(dead, rejected);

  // The cloud stage got every other record.
  std::set<std::uint64_t> expected;
  for (auto id : seen_first) {
    if (rejected.count(id) == 0) expected.insert(id);
  }
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(report.stages.back().messages_out, 5u);
}

}  // namespace
}  // namespace pe::core
