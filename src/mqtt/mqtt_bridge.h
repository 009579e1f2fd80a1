// MQTT -> Kafka-model bridge.
//
// The common edge-to-cloud ingestion pattern: constrained devices publish
// small messages to a nearby MQTT broker; the bridge subscribes with a
// wildcard filter and forwards everything into a partitioned Kafka-model
// topic, where cloud processing keeps replay + consumer-group semantics.
// Messages are keyed by their MQTT topic so one device's stream stays in
// one partition.
//
// Delivery is at-least-once end to end: the bridge acks a QoS-1 message
// only after its forward succeeded (the producer retries transient
// failures by broker/retry.h). A forward that exhausts the retry budget
// stays unacked, so the MQTT session redelivers it after its ack timeout;
// downstream deduplication by message id absorbs the duplicate. A forward
// that shutdown() cancels mid-retry is left unacked and counted neither
// as forwarded nor as an error.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "broker/broker.h"
#include "broker/producer.h"
#include "mqtt/mqtt_client.h"

namespace pe::mqtt {

struct BridgeConfig {
  std::string mqtt_filter = "#";
  std::string kafka_topic;
};

struct BridgeStats {
  std::uint64_t forwarded = 0;
  std::uint64_t forward_errors = 0;
};

/// Runs a forwarding loop on its own thread; stop with shutdown() (also
/// called by the destructor).
class MqttKafkaBridge {
 public:
  MqttKafkaBridge(std::shared_ptr<MqttBroker> mqtt,
                  std::shared_ptr<broker::Broker> kafka,
                  std::shared_ptr<net::Fabric> fabric, net::SiteId site,
                  BridgeConfig config);
  ~MqttKafkaBridge();

  MqttKafkaBridge(const MqttKafkaBridge&) = delete;
  MqttKafkaBridge& operator=(const MqttKafkaBridge&) = delete;

  /// Connects + subscribes + starts the forwarding thread.
  Status start();
  void shutdown();

  BridgeStats stats() const {
    return BridgeStats{forwarded_.load(), errors_.load()};
  }

 private:
  void run();

  std::shared_ptr<MqttBroker> mqtt_;
  std::shared_ptr<broker::Broker> kafka_;
  std::shared_ptr<net::Fabric> fabric_;
  const net::SiteId site_;
  const BridgeConfig config_;
  std::unique_ptr<MqttClient> client_;
  std::unique_ptr<broker::Producer> producer_;
  /// The producer's stop flag: set by shutdown() to end a retrying send.
  std::shared_ptr<std::atomic<bool>> stop_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::thread thread_;
};

}  // namespace pe::mqtt
