#include "mqtt/mqtt_bridge.h"

#include "common/logging.h"

namespace pe::mqtt {

namespace {
/// Emulated idle wait between polls that returned nothing.
constexpr Duration kPollInterval = std::chrono::milliseconds(5);
}  // namespace

MqttKafkaBridge::MqttKafkaBridge(std::shared_ptr<MqttBroker> mqtt,
                                 std::shared_ptr<broker::Broker> kafka,
                                 std::shared_ptr<net::Fabric> fabric,
                                 net::SiteId site, BridgeConfig config)
    : mqtt_(std::move(mqtt)),
      kafka_(std::move(kafka)),
      fabric_(std::move(fabric)),
      site_(std::move(site)),
      config_(std::move(config)) {}

MqttKafkaBridge::~MqttKafkaBridge() { shutdown(); }

Status MqttKafkaBridge::start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  if (!kafka_->has_topic(config_.kafka_topic)) {
    return Status::NotFound("kafka topic '" + config_.kafka_topic +
                            "' does not exist");
  }
  if (!valid_filter(config_.mqtt_filter)) {
    return Status::InvalidArgument("invalid mqtt filter");
  }
  client_ = std::make_unique<MqttClient>(mqtt_, fabric_, site_,
                                         "bridge-" + config_.kafka_topic);
  if (auto c = client_->connect(); !c.ok()) return c.status();
  if (auto s = client_->subscribe(config_.mqtt_filter); !s.ok()) return s;
  stop_ = std::make_shared<std::atomic<bool>>(false);
  producer_ =
      std::make_unique<broker::Producer>(kafka_, fabric_, site_, stop_);
  running_.store(true);
  thread_ = std::thread([this] { run(); });
  return Status::Ok();
}

void MqttKafkaBridge::run() {
  while (running_.load(std::memory_order_acquire)) {
    auto messages = client_->poll(64, /*auto_ack=*/false);
    if (!messages.ok()) {
      errors_.fetch_add(1);
      Clock::sleep_scaled(kPollInterval);
      continue;
    }
    for (auto& m : messages.value()) {
      broker::Record record;
      record.key = m.topic;  // keeps a device's stream in one partition
      // Moves the MQTT payload buffer into the broker's shared immutable
      // payload — the bytes cross the bridge without being copied.
      record.value = std::move(m.payload);
      record.client_timestamp_ns = m.publish_ns;
      auto meta = producer_->send(config_.kafka_topic, std::move(record));
      // Cancelled by shutdown(): neither forwarded nor an error.
      if (meta.status().code() == StatusCode::kCancelled) return;
      if (meta.ok()) {
        forwarded_.fetch_add(1);
        // Acked only once forwarded: an unacked QoS-1 message is
        // redelivered by the session, so a failed forward is never lost.
        // Not charged to the fabric, like MqttClient::poll's auto-ack.
        if (m.qos == QoS::kAtLeastOnce) {
          (void)mqtt_->ack(client_->client_id(), m.packet_id);
        }
      } else {
        errors_.fetch_add(1);
        PE_LOG_WARN("bridge forward failed: "
                    << meta.status().to_string());
      }
    }
    if (messages.value().empty()) {
      Clock::sleep_scaled(kPollInterval);
    }
  }
}

void MqttKafkaBridge::shutdown() {
  if (!running_.exchange(false)) {
    return;
  }
  stop_->store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (client_) (void)client_->disconnect();
}

}  // namespace pe::mqtt
