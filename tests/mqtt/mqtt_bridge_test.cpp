#include "mqtt/mqtt_bridge.h"

#include <gtest/gtest.h>

#include <set>

#include "broker/consumer.h"

namespace pe::mqtt {
namespace {

class BridgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<net::Fabric>();
    ASSERT_TRUE(fabric_->add_site({.id = "edge"}).ok());
    ASSERT_TRUE(fabric_->add_site({.id = "cloud"}).ok());
    net::LinkSpec spec;
    spec.from = "edge";
    spec.to = "cloud";
    spec.latency_min = spec.latency_max = std::chrono::microseconds(200);
    ASSERT_TRUE(fabric_->add_bidirectional_link(spec).ok());

    mqtt_ = std::make_shared<MqttBroker>("edge");
    kafka_ = std::make_shared<broker::Broker>("cloud");
    ASSERT_TRUE(
        kafka_->create_topic("ingest", broker::TopicConfig{.partitions = 2})
            .ok());
  }

  std::shared_ptr<net::Fabric> fabric_;
  std::shared_ptr<MqttBroker> mqtt_;
  std::shared_ptr<broker::Broker> kafka_;
};

TEST_F(BridgeTest, ForwardsMqttIntoKafkaTopic) {
  BridgeConfig config;
  config.mqtt_filter = "sensors/#";
  config.kafka_topic = "ingest";
  MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
  ASSERT_TRUE(bridge.start().ok());

  MqttClient device(mqtt_, fabric_, "edge", "dev-1");
  ASSERT_TRUE(device.connect().ok());
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.topic = "sensors/dev-1/temp";
    m.payload = {static_cast<std::uint8_t>(i)};
    m.qos = QoS::kAtLeastOnce;
    ASSERT_TRUE(device.publish(std::move(m)).ok());
  }

  // Wait for the bridge to drain.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (bridge.stats().forwarded < 5 && Clock::now() < deadline) {
    Clock::sleep_exact(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(bridge.stats().forwarded, 5u);
  EXPECT_EQ(bridge.stats().forward_errors, 0u);

  broker::Consumer consumer(kafka_, fabric_, "cloud", "g");
  ASSERT_TRUE(consumer.subscribe({"ingest"}).ok());
  std::size_t received = 0;
  for (int i = 0; i < 20 && received < 5; ++i) {
    received += consumer.poll(std::chrono::milliseconds(50)).size();
  }
  EXPECT_EQ(received, 5u);
}

TEST_F(BridgeTest, ForwardsEveryMessageAcrossABrokerOutage) {
  // The emulated retry budget (16 s) and the session's ack timeout pass
  // in milliseconds of wall time. Declared first so the scale is restored
  // only after the bridge has shut down.
  ScopedTimeScale scale(1000.0);
  BridgeConfig config;
  config.mqtt_filter = "sensors/#";
  config.kafka_topic = "ingest";
  MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
  ASSERT_TRUE(bridge.start().ok());

  // The Kafka side goes down while the device keeps publishing.
  for (std::uint32_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(kafka_->set_partition_offline("ingest", p, true).ok());
  }
  MqttClient device(mqtt_, fabric_, "edge", "dev-1");
  ASSERT_TRUE(device.connect().ok());
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    Message m;
    m.topic = "sensors/dev-1/temp";
    m.payload = {static_cast<std::uint8_t>(i)};
    m.qos = QoS::kAtLeastOnce;
    ASSERT_TRUE(device.publish(std::move(m)).ok());
  }
  // Longer than the whole retry budget: the first forward gives up.
  const auto outage_end = Clock::now() + std::chrono::milliseconds(60);
  while (bridge.stats().forward_errors == 0 || Clock::now() < outage_end) {
    Clock::sleep_exact(std::chrono::milliseconds(1));
  }
  for (std::uint32_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(kafka_->set_partition_offline("ingest", p, false).ok());
  }

  // A message whose forward failed was never acked, so the session
  // redelivers it: every payload reaches Kafka (duplicates allowed).
  std::set<std::uint8_t> payloads;
  broker::Consumer consumer(kafka_, fabric_, "cloud", "g");
  ASSERT_TRUE(consumer.subscribe({"ingest"}).ok());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (payloads.size() < kMessages && Clock::now() < deadline) {
    for (const auto& r : consumer.poll(std::chrono::milliseconds(50))) {
      ASSERT_EQ(r.record.value.size(), 1u);
      payloads.insert(r.record.value.data()[0]);
    }
  }
  EXPECT_EQ(payloads.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GE(bridge.stats().forward_errors, 1u);
}

TEST_F(BridgeTest, KeysByMqttTopicForStablePartitioning) {
  BridgeConfig config;
  config.kafka_topic = "ingest";
  MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
  ASSERT_TRUE(bridge.start().ok());

  MqttClient device(mqtt_, fabric_, "edge", "dev-1");
  ASSERT_TRUE(device.connect().ok());
  for (int i = 0; i < 6; ++i) {
    Message m;
    m.topic = "d/one";
    m.payload = {1};
    ASSERT_TRUE(device.publish(std::move(m)).ok());
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (bridge.stats().forwarded < 6 && Clock::now() < deadline) {
    Clock::sleep_exact(std::chrono::milliseconds(5));
  }
  // All six must land in exactly one partition (keyed by topic).
  const auto p0 = kafka_->end_offset("ingest", 0).value();
  const auto p1 = kafka_->end_offset("ingest", 1).value();
  EXPECT_TRUE((p0 == 6 && p1 == 0) || (p0 == 0 && p1 == 6));
}

TEST_F(BridgeTest, StartValidatesConfig) {
  {
    BridgeConfig config;
    config.kafka_topic = "missing";
    MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
    EXPECT_EQ(bridge.start().code(), StatusCode::kNotFound);
  }
  {
    BridgeConfig config;
    config.kafka_topic = "ingest";
    config.mqtt_filter = "bad/#/filter";
    MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
    EXPECT_EQ(bridge.start().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(BridgeTest, ShutdownIsIdempotentAndRestartable) {
  BridgeConfig config;
  config.kafka_topic = "ingest";
  MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
  ASSERT_TRUE(bridge.start().ok());
  EXPECT_EQ(bridge.start().code(), StatusCode::kFailedPrecondition);
  bridge.shutdown();
  bridge.shutdown();
  // A stopped bridge can be started again (fresh clean session).
  EXPECT_TRUE(bridge.start().ok());
}

TEST_F(BridgeTest, ShutdownDuringKafkaOutageReturnsPromptly) {
  // Real time (scale 1): a forward left to its retry budget would hold
  // shutdown() for up to 16 s.
  ScopedTimeScale scale(1.0);
  BridgeConfig config;
  config.mqtt_filter = "sensors/#";
  config.kafka_topic = "ingest";
  MqttKafkaBridge bridge(mqtt_, kafka_, fabric_, "edge", config);
  ASSERT_TRUE(bridge.start().ok());
  for (std::uint32_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(kafka_->set_partition_offline("ingest", p, true).ok());
  }
  MqttClient device(mqtt_, fabric_, "edge", "dev-1");
  ASSERT_TRUE(device.connect().ok());
  Message m;
  m.topic = "sensors/dev-1/temp";
  m.payload = {7};
  m.qos = QoS::kAtLeastOnce;
  ASSERT_TRUE(device.publish(std::move(m)).ok());

  // Once the bridge holds the message its forward fails and retries.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (mqtt_->counters().delivered == 0 && Clock::now() < deadline) {
    Clock::sleep_exact(std::chrono::milliseconds(1));
  }
  ASSERT_GE(mqtt_->counters().delivered, 1u);
  Clock::sleep_exact(std::chrono::milliseconds(20));

  Stopwatch sw;
  bridge.shutdown();
  EXPECT_LT(sw.elapsed_ms(), 100.0);
  // The cancelled forward is neither forwarded nor an error.
  EXPECT_EQ(bridge.stats().forwarded, 0u);
  EXPECT_EQ(bridge.stats().forward_errors, 0u);
}

TEST_F(BridgeTest, ClientChargesFabric) {
  MqttClient device(mqtt_, fabric_, "cloud", "remote-dev");
  ASSERT_TRUE(device.connect().ok());
  Message m;
  m.topic = "t";
  m.payload.assign(1000, 1);
  ASSERT_TRUE(device.publish(std::move(m)).ok());
  const auto stats = fabric_->link_stats();
  EXPECT_GT(stats.at("cloud->edge").bytes, 1000u);
}

TEST_F(BridgeTest, ClientDieFiresWill) {
  MqttClient watcher(mqtt_, fabric_, "edge", "watcher");
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.subscribe("wills/#").ok());

  SessionOptions options;
  Message will;
  will.topic = "wills/fragile";
  will.payload = {0xFF};
  options.will = will;
  auto fragile =
      std::make_unique<MqttClient>(mqtt_, fabric_, "edge", "fragile");
  ASSERT_TRUE(fragile->connect(options).ok());
  ASSERT_TRUE(fragile->die().ok());

  auto messages = watcher.poll();
  ASSERT_TRUE(messages.ok());
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0].topic, "wills/fragile");
}

TEST_F(BridgeTest, ManualAckControlsRedelivery) {
  MqttClient consumer(mqtt_, fabric_, "edge", "manual");
  SessionOptions options;
  options.ack_timeout = std::chrono::milliseconds(20);
  ASSERT_TRUE(consumer.connect(options).ok());
  ASSERT_TRUE(consumer.subscribe("jobs").ok());

  MqttClient producer(mqtt_, fabric_, "edge", "producer");
  ASSERT_TRUE(producer.connect().ok());
  Message m;
  m.topic = "jobs";
  m.payload = {9};
  m.qos = QoS::kAtLeastOnce;
  ASSERT_TRUE(producer.publish(std::move(m)).ok());

  // Manual-ack poll: message stays pending until acked.
  auto first = consumer.poll(16, /*auto_ack=*/false);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 1u);
  const auto packet_id = first.value()[0].packet_id;

  Clock::sleep_exact(std::chrono::milliseconds(25));
  auto redelivered = consumer.poll(16, /*auto_ack=*/false);
  ASSERT_TRUE(redelivered.ok());
  ASSERT_EQ(redelivered.value().size(), 1u);
  EXPECT_TRUE(redelivered.value()[0].duplicate);

  ASSERT_TRUE(consumer.ack(packet_id).ok());
  Clock::sleep_exact(std::chrono::milliseconds(25));
  EXPECT_TRUE(consumer.poll(16, false).value().empty());
}

}  // namespace
}  // namespace pe::mqtt
