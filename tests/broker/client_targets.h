// The two endpoints the one Producer/Consumer pair runs against: a Broker
// behind an emulated edge->cloud fabric link, and a 3-broker replicated
// cluster behind a ClusterEndpoint (no emulated link). Client tests whose
// behaviour applies to both loop over client_targets(), so one test body
// pins the contract on both.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_endpoint.h"
#include "network/fabric.h"

namespace pe::broker {

struct ClientTarget {
  std::string name;
  std::shared_ptr<Endpoint> endpoint;
  /// Null on the cluster: no emulated link.
  std::shared_ptr<net::Fabric> fabric;
  /// Exactly one of these is set.
  std::shared_ptr<Broker> broker;
  std::shared_ptr<cluster::BrokerCluster> cluster;

  Status create_topic(const std::string& topic, std::uint32_t partitions,
                      RetentionPolicy retention = {}) const {
    if (broker) {
      return broker->create_topic(
          topic, TopicConfig{.partitions = partitions, .retention = retention});
    }
    cluster::ClusterTopicConfig config;
    config.partitions = partitions;
    config.retention = retention;
    return cluster->create_topic(topic, config);
  }

  /// The coordinator serving consumer groups (a cluster's offsets leader).
  GroupCoordinator& coordinator() const {
    if (broker) return broker->coordinator();
    return cluster->offsets_leader()->coordinator();
  }

  /// Group session timeout on every coordinator that may serve groups.
  void set_session_timeout(Duration timeout) const {
    if (broker) {
      broker->coordinator().set_session_timeout(timeout);
      return;
    }
    for (cluster::BrokerId id = 0; id < cluster->broker_count(); ++id) {
      cluster->broker(id)->coordinator().set_session_timeout(timeout);
    }
  }
};

/// {`broker` over `fabric`, a fresh 3-broker cluster}, each with topic
/// `topic` of `partitions` partitions under `retention` (created here on
/// the cluster; the broker's is the caller's). `admission` applies to the
/// cluster; the broker's is the caller's.
inline std::vector<ClientTarget> client_targets(
    std::shared_ptr<Broker> broker, std::shared_ptr<net::Fabric> fabric,
    const std::string& topic, std::uint32_t partitions,
    RetentionPolicy retention = {}, AdmissionConfig admission = {}) {
  std::vector<ClientTarget> targets;
  targets.push_back({"broker", broker, std::move(fabric), broker, nullptr});

  cluster::ClusterOptions options;
  options.heartbeat_interval = std::chrono::milliseconds(1);
  options.session_timeout = std::chrono::milliseconds(6);
  options.ack_timeout = std::chrono::milliseconds(40);
  options.admission = admission;
  auto bc = std::make_shared<cluster::BrokerCluster>(options);
  targets.push_back({"cluster", std::make_shared<cluster::ClusterEndpoint>(bc),
                     nullptr, nullptr, bc});
  const Status created =
      targets.back().create_topic(topic, partitions, retention);
  EXPECT_TRUE(created.ok()) << created.to_string();
  return targets;
}

}  // namespace pe::broker
