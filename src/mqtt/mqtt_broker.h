// MQTT-model broker: the paper's second brokering plugin.
//
// "Support for further brokering frameworks, e.g., MQTT for
// low-performance and low-power environments, can easily be added"
// (§II-B). This implements the MQTT 3.1.1 *model* (not the wire
// protocol): hierarchical topics with + / # wildcards, QoS 0 (at most
// once) and QoS 1 (at least once with PUBACK-style acknowledgement and
// redelivery), retained messages, persistent sessions with queued
// undelivered messages, and last-will publication on unclean disconnect.
//
// Contrast with the Kafka-model broker (src/broker): MQTT pushes to
// subscribers and keeps no replayable log — lighter state, no offset
// management, suitable for constrained edge devices. The bridge in
// mqtt_bridge.h forwards MQTT ingress into a Kafka-model topic so cloud
// processing keeps its replay/consumer-group semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/serialize.h"
#include "common/status.h"
#include "network/site.h"

namespace pe::mqtt {

enum class QoS : std::uint8_t {
  kAtMostOnce = 0,   // fire and forget
  kAtLeastOnce = 1,  // redelivered until acknowledged
};

struct Message {
  std::string topic;
  Bytes payload;
  QoS qos = QoS::kAtMostOnce;
  bool retain = false;
  std::uint64_t publish_ns = 0;
  /// Broker-assigned id, used to acknowledge QoS-1 deliveries.
  std::uint64_t packet_id = 0;
  /// True when delivered from the retained store on subscribe.
  bool retained_replay = false;
  /// True on QoS-1 redelivery attempts (MQTT DUP flag).
  bool duplicate = false;
};

/// Topic filter matching per MQTT 3.1.1 §4.7: levels split on '/',
/// '+' matches one level, '#' (final level only) matches the rest.
bool topic_matches(const std::string& filter, const std::string& topic);

/// True if the string is a valid topic *filter* (wildcards allowed).
bool valid_filter(const std::string& filter);
/// True if the string is a valid concrete topic name (no wildcards).
bool valid_topic(const std::string& topic);

struct SessionOptions {
  /// Clean session: discard state on disconnect. Persistent sessions keep
  /// subscriptions and queue messages while the client is away.
  bool clean_session = true;
  /// Last-will message published if the session dies uncleanly.
  std::optional<Message> will;
  /// Redelivery timeout for unacknowledged QoS-1 messages.
  Duration ack_timeout = std::chrono::milliseconds(200);
  /// Max queued messages for an offline persistent session (0 = drop all).
  std::size_t offline_queue_limit = 1024;
};

struct BrokerCounters {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t redelivered = 0;
  std::uint64_t dropped_offline = 0;
  std::uint64_t wills_fired = 0;
};

class MqttBroker {
 public:
  explicit MqttBroker(net::SiteId site);

  const net::SiteId& site() const { return site_; }

  // --- session lifecycle ---
  /// Connects (or resumes) a client session. Returns true when a
  /// persistent session was resumed.
  Result<bool> connect(const std::string& client_id,
                       SessionOptions options = {});
  /// Clean disconnect: no will; persistent sessions keep subscriptions.
  Status disconnect(const std::string& client_id);
  /// Unclean termination: fires the will, same session retention rules.
  Status drop(const std::string& client_id);
  bool connected(const std::string& client_id) const;

  // --- pub/sub ---
  Status subscribe(const std::string& client_id, const std::string& filter,
                   QoS max_qos = QoS::kAtLeastOnce);
  Status unsubscribe(const std::string& client_id,
                     const std::string& filter);
  Status publish(Message message);

  /// Fetches up to `max` pending deliveries for a client. QoS-1 messages
  /// not acknowledged within ack_timeout are redelivered (DUP set).
  Result<std::vector<Message>> poll(const std::string& client_id,
                                    std::size_t max = 64);
  /// Acknowledges a QoS-1 delivery.
  Status ack(const std::string& client_id, std::uint64_t packet_id);

  std::vector<std::string> subscriptions(const std::string& client_id) const;
  std::size_t retained_count() const;
  BrokerCounters counters() const;

 private:
  struct Subscription {
    std::string filter;
    QoS max_qos;
  };
  struct PendingAck {
    Message message;
    TimePoint sent_at;
  };
  struct Session {
    bool connected = false;
    SessionOptions options;
    std::vector<Subscription> subscriptions;
    std::deque<Message> inbox;
    std::map<std::uint64_t, PendingAck> awaiting_ack;
  };

  void route_locked(const Message& message) PE_REQUIRES(mutex_);
  void deliver_locked(Session& session, const Subscription& sub,
                      Message message) PE_REQUIRES(mutex_);

  const net::SiteId site_;
  mutable Mutex mutex_;
  std::map<std::string, Session> sessions_ PE_GUARDED_BY(mutex_);
  std::map<std::string, Message> retained_
      PE_GUARDED_BY(mutex_);  // topic -> last retained msg
  std::uint64_t next_packet_id_ PE_GUARDED_BY(mutex_) = 1;
  BrokerCounters counters_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::mqtt
