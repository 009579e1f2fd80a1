#include "broker/producer.h"

namespace pe::broker {

Producer::Producer(std::shared_ptr<Endpoint> endpoint,
                   std::shared_ptr<net::Fabric> fabric, net::SiteId site)
    : endpoint_(std::move(endpoint)),
      fabric_(std::move(fabric)),
      site_(std::move(site)) {}

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
  std::vector<Record> batch;
  batch.push_back(std::move(record));
  return send_batch(topic, partition, std::move(batch));
}

Result<RecordMetadata> Producer::send_batch(const std::string& topic,
                                            std::uint32_t partition,
                                            std::vector<Record> records) {
  if (records.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  std::uint64_t bytes = 0;
  for (const auto& r : records) bytes += r.wire_size();

  RecordMetadata meta;
  if (fabric_) {
    auto transfer = fabric_->transfer(site_, endpoint_->site(), bytes);
    if (!transfer.ok()) {
      MutexLock lock(mutex_);
      stats_.send_errors += 1;
      return transfer.status();
    }
    meta.transfer = transfer.value();
  }

  const auto count = records.size();
  auto offset = endpoint_->produce(topic, partition, std::move(records), id_);
  if (!offset.ok()) {
    MutexLock lock(mutex_);
    stats_.send_errors += 1;
    return offset.status();
  }

  {
    MutexLock lock(mutex_);
    stats_.records_sent += count;
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
