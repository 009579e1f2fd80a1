// Producer client over an Endpoint (a Broker or a cluster::ClusterEndpoint).
//
// Attached to a fabric site; every send charges the serialized payload to
// the link between the producer's site and the endpoint's site before the
// records are appended (none with a null fabric). send_batch models Kafka
// producer batching: the whole batch crosses the network as one transfer
// (one propagation delay), which is what makes batching pay off over the
// WAN.
//
// Every send retries transient failures by the one client policy in
// broker/retry.h, until the optional stop flag is set; each attempt
// crosses the network again. A retry after an ack TIMEOUT can duplicate
// records: at-least-once, never silently lossy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "broker/endpoint.h"
#include "common/mutex.h"
#include "network/fabric.h"

namespace pe::broker {

/// Where a sent record landed, plus what the network charged for it.
struct RecordMetadata {
  std::string topic;
  std::uint32_t partition = 0;
  std::uint64_t offset = 0;
  net::TransferResult transfer;
};

struct ProducerStats {
  std::uint64_t records_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Sends that failed after the retry policy gave up (or permanently).
  std::uint64_t send_errors = 0;
  /// Attempts repeated after a transient failure, across all sends.
  std::uint64_t retries = 0;
  /// The retries that waited out a broker throttle's retry-after hint.
  std::uint64_t throttle_waits = 0;
};

class Producer {
 public:
  Producer(std::shared_ptr<Endpoint> endpoint,
           std::shared_ptr<net::Fabric> fabric, net::SiteId site,
           std::shared_ptr<const std::atomic<bool>> stop = nullptr);

  /// Sends one record; partition chosen by the topic's partitioner.
  Result<RecordMetadata> send(const std::string& topic, Record record);

  /// Sends one record to an explicit partition.
  Result<RecordMetadata> send(const std::string& topic,
                              std::uint32_t partition, Record record);

  /// Sends a batch to an explicit partition as a single network transfer.
  /// Returns metadata of the *first* record in the batch.
  Result<RecordMetadata> send_batch(const std::string& topic,
                                    std::uint32_t partition,
                                    std::vector<Record> records);

  const net::SiteId& site() const { return site_; }
  /// Client id presented to the serving broker's admission control.
  const std::string& id() const { return id_; }
  ProducerStats stats() const;

 private:
  /// One transfer and one produce per attempt, under the retry policy.
  Result<RecordMetadata> send_records(const std::string& topic,
                                      std::uint32_t partition,
                                      std::span<const Record> records);

  std::shared_ptr<Endpoint> endpoint_;
  std::shared_ptr<net::Fabric> fabric_;
  const net::SiteId site_;
  const std::shared_ptr<const std::atomic<bool>> stop_;
  const std::string id_ = next_producer_id();
  mutable Mutex mutex_;
  ProducerStats stats_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::broker
