#include "mqtt/mqtt_broker.h"

#include <gtest/gtest.h>

namespace pe::mqtt {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

Message make_message(const std::string& topic, const std::string& payload,
                     QoS qos = QoS::kAtMostOnce, bool retain = false) {
  Message m;
  m.topic = topic;
  m.payload = bytes_of(payload);
  m.qos = qos;
  m.retain = retain;
  return m;
}

// ---------- topic matching ----------

struct MatchCase {
  const char* filter;
  const char* topic;
  bool matches;
};

// The default printer dumps the struct's raw bytes, pointer values included,
// which made the test names (built from the printed value) change per run.
void PrintTo(const MatchCase& c, std::ostream* os) {
  *os << c.filter << " vs " << c.topic;
}

class TopicMatchTest : public ::testing::TestWithParam<MatchCase> {};

TEST_P(TopicMatchTest, MatchesPerMqttSpec) {
  EXPECT_EQ(topic_matches(GetParam().filter, GetParam().topic),
            GetParam().matches)
      << GetParam().filter << " vs " << GetParam().topic;
}

INSTANTIATE_TEST_SUITE_P(
    Spec, TopicMatchTest,
    ::testing::Values(
        MatchCase{"a/b/c", "a/b/c", true},
        MatchCase{"a/b/c", "a/b/d", false},
        MatchCase{"a/b/c", "a/b", false},
        MatchCase{"a/b", "a/b/c", false},
        MatchCase{"a/+/c", "a/b/c", true},
        MatchCase{"a/+/c", "a/x/c", true},
        MatchCase{"a/+/c", "a/b/d", false},
        MatchCase{"+/+/+", "a/b/c", true},
        MatchCase{"+", "a", true},
        MatchCase{"+", "a/b", false},
        MatchCase{"#", "a", true},
        MatchCase{"#", "a/b/c", true},
        MatchCase{"a/#", "a/b/c", true},
        MatchCase{"a/#", "a", true},  // '#' also matches the parent level
        MatchCase{"a/#", "b/c", false},
        MatchCase{"sensors/+/temp", "sensors/dev1/temp", true},
        MatchCase{"sensors/+/temp", "sensors/dev1/humidity", false}));

TEST(TopicValidationTest, Filters) {
  EXPECT_TRUE(valid_filter("a/b/c"));
  EXPECT_TRUE(valid_filter("a/+/c"));
  EXPECT_TRUE(valid_filter("a/#"));
  EXPECT_TRUE(valid_filter("#"));
  EXPECT_FALSE(valid_filter(""));
  EXPECT_FALSE(valid_filter("a/#/c"));   // '#' not last
  EXPECT_FALSE(valid_filter("a/b#"));    // wildcard inside a level
  EXPECT_FALSE(valid_filter("a/b+/c"));
}

TEST(TopicValidationTest, Topics) {
  EXPECT_TRUE(valid_topic("a/b/c"));
  EXPECT_FALSE(valid_topic(""));
  EXPECT_FALSE(valid_topic("a/+/c"));
  EXPECT_FALSE(valid_topic("a/#"));
}

// ---------- sessions ----------

TEST(MqttBrokerTest, ConnectDisconnectLifecycle) {
  MqttBroker broker("edge");
  auto resumed = broker.connect("c1");
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed.value());
  EXPECT_TRUE(broker.connected("c1"));
  EXPECT_EQ(broker.connect("c1").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(broker.disconnect("c1").ok());
  EXPECT_FALSE(broker.connected("c1"));
  EXPECT_EQ(broker.disconnect("c1").code(), StatusCode::kNotFound);
}

TEST(MqttBrokerTest, EmptyClientIdRejected) {
  MqttBroker broker("edge");
  EXPECT_EQ(broker.connect("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MqttBrokerTest, PersistentSessionResumes) {
  MqttBroker broker("edge");
  SessionOptions persistent;
  persistent.clean_session = false;
  ASSERT_TRUE(broker.connect("c1", persistent).ok());
  ASSERT_TRUE(broker.subscribe("c1", "a/#").ok());
  ASSERT_TRUE(broker.disconnect("c1").ok());

  auto resumed = broker.connect("c1", persistent);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.value());
  EXPECT_EQ(broker.subscriptions("c1").size(), 1u);
}

TEST(MqttBrokerTest, CleanSessionDiscardsState) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c1").ok());  // clean by default
  ASSERT_TRUE(broker.subscribe("c1", "a/#").ok());
  ASSERT_TRUE(broker.disconnect("c1").ok());
  auto resumed = broker.connect("c1");
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed.value());
  EXPECT_TRUE(broker.subscriptions("c1").empty());
}

// ---------- pub/sub ----------

TEST(MqttBrokerTest, PublishReachesMatchingSubscribers) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("sub1").ok());
  ASSERT_TRUE(broker.connect("sub2").ok());
  ASSERT_TRUE(broker.connect("other").ok());
  ASSERT_TRUE(broker.subscribe("sub1", "sensors/#").ok());
  ASSERT_TRUE(broker.subscribe("sub2", "sensors/+/temp").ok());
  ASSERT_TRUE(broker.subscribe("other", "logs/#").ok());

  ASSERT_TRUE(broker.publish(make_message("sensors/d1/temp", "21.5")).ok());

  auto m1 = broker.poll("sub1");
  auto m2 = broker.poll("sub2");
  auto m3 = broker.poll("other");
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m3.ok());
  ASSERT_EQ(m1.value().size(), 1u);
  ASSERT_EQ(m2.value().size(), 1u);
  EXPECT_TRUE(m3.value().empty());
  EXPECT_EQ(m1.value()[0].payload, bytes_of("21.5"));
}

TEST(MqttBrokerTest, OverlappingSubscriptionsDeliverOnce) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  ASSERT_TRUE(broker.subscribe("c", "a/#").ok());
  ASSERT_TRUE(broker.subscribe("c", "a/+").ok());
  ASSERT_TRUE(broker.publish(make_message("a/b", "x")).ok());
  auto messages = broker.poll("c");
  ASSERT_TRUE(messages.ok());
  EXPECT_EQ(messages.value().size(), 1u);
}

TEST(MqttBrokerTest, PublishWithWildcardTopicRejected) {
  MqttBroker broker("edge");
  EXPECT_EQ(broker.publish(make_message("a/+", "x")).code(),
            StatusCode::kInvalidArgument);
}

TEST(MqttBrokerTest, SubscribeValidation) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  EXPECT_EQ(broker.subscribe("c", "a/#/b").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.subscribe("ghost", "a/#").code(),
            StatusCode::kFailedPrecondition);
}

TEST(MqttBrokerTest, Unsubscribe) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  ASSERT_TRUE(broker.subscribe("c", "a/#").ok());
  ASSERT_TRUE(broker.unsubscribe("c", "a/#").ok());
  EXPECT_EQ(broker.unsubscribe("c", "a/#").code(), StatusCode::kNotFound);
  ASSERT_TRUE(broker.publish(make_message("a/b", "x")).ok());
  EXPECT_TRUE(broker.poll("c").value().empty());
}

// ---------- QoS 1 ----------

TEST(MqttBrokerTest, QoS1RequiresAckAndRedelivers) {
  MqttBroker broker("edge");
  SessionOptions options;
  options.ack_timeout = std::chrono::milliseconds(20);
  ASSERT_TRUE(broker.connect("c", options).ok());
  ASSERT_TRUE(broker.subscribe("c", "a", QoS::kAtLeastOnce).ok());
  ASSERT_TRUE(
      broker.publish(make_message("a", "x", QoS::kAtLeastOnce)).ok());

  auto first = broker.poll("c");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 1u);
  EXPECT_FALSE(first.value()[0].duplicate);
  const auto packet_id = first.value()[0].packet_id;

  // Not acked: after the timeout the message comes again with DUP.
  Clock::sleep_exact(std::chrono::milliseconds(25));
  auto second = broker.poll("c");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().size(), 1u);
  EXPECT_TRUE(second.value()[0].duplicate);
  EXPECT_EQ(second.value()[0].packet_id, packet_id);

  // Acked: no more redelivery.
  ASSERT_TRUE(broker.ack("c", packet_id).ok());
  Clock::sleep_exact(std::chrono::milliseconds(25));
  EXPECT_TRUE(broker.poll("c").value().empty());
  EXPECT_GE(broker.counters().redelivered, 1u);
}

TEST(MqttBrokerTest, QoS0IsNotRedelivered) {
  MqttBroker broker("edge");
  SessionOptions options;
  options.ack_timeout = std::chrono::milliseconds(10);
  ASSERT_TRUE(broker.connect("c", options).ok());
  ASSERT_TRUE(broker.subscribe("c", "a", QoS::kAtMostOnce).ok());
  ASSERT_TRUE(
      broker.publish(make_message("a", "x", QoS::kAtLeastOnce)).ok());
  ASSERT_EQ(broker.poll("c").value().size(), 1u);
  Clock::sleep_exact(std::chrono::milliseconds(15));
  EXPECT_TRUE(broker.poll("c").value().empty());
}

TEST(MqttBrokerTest, EffectiveQosIsMinOfPublishAndSubscription) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  ASSERT_TRUE(broker.subscribe("c", "a", QoS::kAtMostOnce).ok());
  ASSERT_TRUE(
      broker.publish(make_message("a", "x", QoS::kAtLeastOnce)).ok());
  auto messages = broker.poll("c");
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0].qos, QoS::kAtMostOnce);
}

TEST(MqttBrokerTest, AckUnknownPacketFails) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  EXPECT_EQ(broker.ack("c", 999).code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.ack("ghost", 1).code(), StatusCode::kNotFound);
}

// ---------- retained messages ----------

TEST(MqttBrokerTest, RetainedMessageReplaysOnSubscribe) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.publish(
      make_message("status/d1", "online", QoS::kAtMostOnce, true)).ok());
  EXPECT_EQ(broker.retained_count(), 1u);

  ASSERT_TRUE(broker.connect("late").ok());
  ASSERT_TRUE(broker.subscribe("late", "status/#").ok());
  auto messages = broker.poll("late");
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_TRUE(messages.value()[0].retained_replay);
  EXPECT_EQ(messages.value()[0].payload, bytes_of("online"));
}

TEST(MqttBrokerTest, RetainedMessageOverwrittenAndCleared) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.publish(
      make_message("s", "v1", QoS::kAtMostOnce, true)).ok());
  ASSERT_TRUE(broker.publish(
      make_message("s", "v2", QoS::kAtMostOnce, true)).ok());
  ASSERT_TRUE(broker.connect("c").ok());
  ASSERT_TRUE(broker.subscribe("c", "s").ok());
  auto messages = broker.poll("c");
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0].payload, bytes_of("v2"));

  // Empty retained payload clears the slot.
  Message clear;
  clear.topic = "s";
  clear.retain = true;
  ASSERT_TRUE(broker.publish(clear).ok());
  EXPECT_EQ(broker.retained_count(), 0u);
}

// ---------- offline queueing & wills ----------

TEST(MqttBrokerTest, OfflinePersistentSessionQueuesMessages) {
  MqttBroker broker("edge");
  SessionOptions persistent;
  persistent.clean_session = false;
  ASSERT_TRUE(broker.connect("c", persistent).ok());
  ASSERT_TRUE(broker.subscribe("c", "a").ok());
  ASSERT_TRUE(broker.disconnect("c").ok());

  ASSERT_TRUE(broker.publish(make_message("a", "while-away")).ok());
  EXPECT_EQ(broker.poll("c").status().code(),
            StatusCode::kFailedPrecondition);  // offline

  ASSERT_TRUE(broker.connect("c", persistent).ok());
  auto messages = broker.poll("c");
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0].payload, bytes_of("while-away"));
}

TEST(MqttBrokerTest, OfflineQueueLimitDrops) {
  MqttBroker broker("edge");
  SessionOptions persistent;
  persistent.clean_session = false;
  persistent.offline_queue_limit = 2;
  ASSERT_TRUE(broker.connect("c", persistent).ok());
  ASSERT_TRUE(broker.subscribe("c", "a").ok());
  ASSERT_TRUE(broker.disconnect("c").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker.publish(make_message("a", std::to_string(i))).ok());
  }
  ASSERT_TRUE(broker.connect("c", persistent).ok());
  EXPECT_EQ(broker.poll("c").value().size(), 2u);
  EXPECT_EQ(broker.counters().dropped_offline, 3u);
}

TEST(MqttBrokerTest, WillFiresOnUncleanDropOnly) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("watcher").ok());
  ASSERT_TRUE(broker.subscribe("watcher", "wills/#").ok());

  SessionOptions with_will;
  with_will.will = make_message("wills/c1", "gone");
  ASSERT_TRUE(broker.connect("c1", with_will).ok());
  ASSERT_TRUE(broker.disconnect("c1").ok());  // clean: no will
  EXPECT_TRUE(broker.poll("watcher").value().empty());

  ASSERT_TRUE(broker.connect("c2", SessionOptions{
                                       .clean_session = true,
                                       .will = make_message("wills/c2",
                                                            "died")})
                  .ok());
  ASSERT_TRUE(broker.drop("c2").ok());  // unclean: will fires
  auto messages = broker.poll("watcher");
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0].topic, "wills/c2");
  EXPECT_EQ(broker.counters().wills_fired, 1u);
}

TEST(MqttBrokerTest, CountersTrackTraffic) {
  MqttBroker broker("edge");
  ASSERT_TRUE(broker.connect("c").ok());
  ASSERT_TRUE(broker.subscribe("c", "a").ok());
  ASSERT_TRUE(broker.publish(make_message("a", "x")).ok());
  ASSERT_TRUE(broker.publish(make_message("unmatched", "y")).ok());
  const auto counters = broker.counters();
  EXPECT_EQ(counters.published, 2u);
  EXPECT_EQ(counters.delivered, 1u);
}

}  // namespace
}  // namespace pe::mqtt
