// Topic: a named set of partition logs plus a partitioning function.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "broker/partition_log.h"

namespace pe::broker {

/// How producers map records without an explicit partition to a partition.
enum class PartitionerKind {
  kKeyHash,     // hash(key) % partitions; empty key falls back to round-robin
  kRoundRobin,  // strict rotation regardless of key
};

struct TopicConfig {
  std::uint32_t partitions = 1;
  RetentionPolicy retention;
  PartitionerKind partitioner = PartitionerKind::kKeyHash;
};

class Topic {
 public:
  /// `durable_dir`, when non-empty, roots one storage::LogDir per
  /// partition at `<durable_dir>/p<partition>`; existing directories are
  /// recovered, so re-creating a topic after a broker restart resumes
  /// every partition's offset sequence.
  Topic(std::string name, TopicConfig config, std::string durable_dir = "",
        storage::StorageConfig storage = {});

  const std::string& name() const { return name_; }
  std::uint32_t partition_count() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }

  /// Chooses a partition for a record according to the topic's partitioner.
  std::uint32_t select_partition(const Record& record);

  /// The log for a partition; nullptr when out of range.
  PartitionLog* partition(std::uint32_t p);
  const PartitionLog* partition(std::uint32_t p) const;

  /// Total records across partitions (diagnostic).
  std::uint64_t total_records() const;
  std::uint64_t total_bytes() const;

  /// Installs the broker-wide hot-bytes counter on every partition (see
  /// PartitionLog::set_hot_bytes_counter).
  void set_hot_bytes_counter(std::shared_ptr<std::atomic<std::int64_t>> c);

 private:
  const std::string name_;
  const TopicConfig config_;
  std::vector<std::unique_ptr<PartitionLog>> partitions_;
  std::atomic<std::uint64_t> round_robin_{0};
};

}  // namespace pe::broker
