#include "broker/producer.h"

#include "broker/retry.h"

namespace pe::broker {

Producer::Producer(std::shared_ptr<Endpoint> endpoint,
                   std::shared_ptr<net::Fabric> fabric, net::SiteId site,
                   std::shared_ptr<const std::atomic<bool>> stop)
    : endpoint_(std::move(endpoint)),
      fabric_(std::move(fabric)),
      site_(std::move(site)),
      stop_(std::move(stop)) {}

Result<RecordMetadata> Producer::send(const std::string& topic,
                                      Record record) {
  auto partition = endpoint_->select_partition(topic, record);
  if (!partition.ok()) {
    MutexLock lock(mutex_);
    stats_.send_errors += 1;
    return partition.status();
  }
  return send(topic, partition.value(), std::move(record));
}

Result<RecordMetadata> Producer::send(const std::string& topic,
                                      std::uint32_t partition, Record record) {
  return send_records(topic, partition, {&record, 1});
}

Result<RecordMetadata> Producer::send_batch(const std::string& topic,
                                            std::uint32_t partition,
                                            std::vector<Record> records) {
  if (records.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  return send_records(topic, partition, records);
}

Result<RecordMetadata> Producer::send_records(
    const std::string& topic, std::uint32_t partition,
    std::span<const Record> records) {
  std::uint64_t bytes = 0;
  for (const auto& r : records) bytes += r.wire_size();

  RecordMetadata meta;
  RetryTally tally;
  auto offset = retry_transient(
      [&]() -> Result<std::uint64_t> {
        if (fabric_) {
          auto transfer = fabric_->transfer(site_, endpoint_->site(), bytes);
          if (!transfer.ok()) return transfer.status();
          meta.transfer = transfer.value();
        }
        // One copy per attempt: payloads are shared views, so it costs
        // the keys and a refcount bump, never payload bytes.
        return endpoint_->produce(
            topic, partition,
            std::vector<Record>(records.begin(), records.end()), id_);
      },
      &tally, stop_.get());

  {
    MutexLock lock(mutex_);
    stats_.retries += tally.retries;
    stats_.throttle_waits += tally.throttle_waits;
    if (!offset.ok()) {
      stats_.send_errors += 1;
      return offset.status();
    }
    stats_.records_sent += records.size();
    stats_.bytes_sent += bytes;
  }

  meta.topic = topic;
  meta.partition = partition;
  meta.offset = offset.value();
  return meta;
}

ProducerStats Producer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace pe::broker
