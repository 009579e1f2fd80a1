#include "transport/control_client.h"

#include <unistd.h>

namespace pe::transport {

Result<ControlClient> ControlClient::connect(std::uint16_t port,
                                             Duration timeout) {
  auto socket = FramedSocket::connect_loopback(port, timeout);
  if (!socket.ok()) return socket.status();
  return ControlClient(std::move(socket.value()));
}

Result<ControlMap> ControlClient::request(const ControlMap& req) {
  if (!socket_.valid()) return Status::FailedPrecondition("client closed");
  auto payload = encode_control(req);
  if (auto s = socket_.send_frame(kFrameControl, payload); !s.ok()) return s;
  auto frame = socket_.recv_frame(request_timeout_);
  if (!frame.ok()) return frame.status();
  if (frame.value().type != kFrameControl) {
    return Status::Internal("expected control reply, got frame type '" +
                            std::string(1, frame.value().type) + "'");
  }
  ControlMap reply;
  if (auto s = parse_control(frame.value().payload, &reply); !s.ok()) {
    return s;
  }
  if (auto s = status_from_reply(reply); !s.ok()) return s;
  return reply;
}

Status ControlClient::ping() {
  return request({{"op", "ping"}}).status();
}

Status ControlClient::register_ring(const std::string& channel,
                                    const std::string& shm_name,
                                    std::uint64_t capacity,
                                    const std::string& topic,
                                    std::uint32_t partition) {
  return request({{"op", "register_ring"},
                  {"channel", channel},
                  {"shm", shm_name},
                  {"capacity", std::to_string(capacity)},
                  {"pid", std::to_string(::getpid())},
                  {"topic", topic},
                  {"partition", std::to_string(partition)}})
      .status();
}

Result<ChannelLocation> ControlClient::lookup(const std::string& channel) {
  auto reply = request({{"op", "lookup"}, {"channel", channel}});
  if (!reply.ok()) return reply.status();
  ChannelLocation loc;
  Status s = require_field(reply.value(), "shm", &loc.shm_name);
  if (s.ok()) s = require_u64(reply.value(), "capacity", &loc.capacity);
  if (s.ok()) s = require_field(reply.value(), "topic", &loc.topic);
  std::uint64_t partition = 0, pid = 0;
  if (s.ok()) s = require_u64(reply.value(), "partition", &partition);
  if (s.ok()) s = require_u64(reply.value(), "pid", &pid);
  if (s.ok()) s = require_field(reply.value(), "state", &loc.state);
  if (!s.ok()) return s;
  loc.partition = static_cast<std::uint32_t>(partition);
  loc.producer_pid = pid;
  return loc;
}

Status ControlClient::unregister(const std::string& channel) {
  return request({{"op", "unregister"}, {"channel", channel}}).status();
}

Status ControlClient::create_topic(const std::string& topic,
                                   std::uint32_t partitions) {
  return request({{"op", "create_topic"},
                  {"topic", topic},
                  {"partitions", std::to_string(partitions)}})
      .status();
}

Status ControlClient::heartbeat(const std::string& channel) {
  if (!socket_.valid()) return Status::FailedPrecondition("client closed");
  ByteSpan payload(reinterpret_cast<const std::uint8_t*>(channel.data()),
                   channel.size());
  return socket_.send_frame(kFrameHeartbeat, payload);
}

Result<std::uint64_t> ControlClient::produce(
    const std::string& topic, std::uint32_t partition,
    std::vector<broker::Record> records, const std::string& client_id) {
  if (!socket_.valid()) return Status::FailedPrecondition("client closed");
  ProduceBatch batch;
  batch.topic = topic;
  batch.partition = partition;
  batch.client_id = client_id;
  batch.records = std::move(records);
  auto payload = encode_produce_batch(batch);
  if (auto s = socket_.send_frame(kFrameBinary, payload); !s.ok()) return s;
  auto frame = socket_.recv_frame(request_timeout_);
  if (!frame.ok()) return frame.status();
  if (frame.value().type != kFrameControl) {
    return Status::Internal("expected control reply to produce");
  }
  ControlMap reply;
  if (auto s = parse_control(frame.value().payload, &reply); !s.ok()) return s;
  if (auto s = status_from_reply(reply); !s.ok()) return s;
  std::uint64_t offset = 0;
  if (auto s = require_u64(reply, "offset", &offset); !s.ok()) return s;
  return offset;
}

Result<std::vector<broker::ConsumedRecord>> ControlClient::fetch(
    const std::string& topic, std::uint32_t partition, std::uint64_t offset,
    std::uint64_t max_records, std::uint64_t max_bytes) {
  if (!socket_.valid()) return Status::FailedPrecondition("client closed");
  ControlMap req{{"op", "fetch"},
                 {"topic", topic},
                 {"partition", std::to_string(partition)},
                 {"offset", std::to_string(offset)},
                 {"max_records", std::to_string(max_records)},
                 {"max_bytes", std::to_string(max_bytes)}};
  auto payload = encode_control(req);
  if (auto s = socket_.send_frame(kFrameControl, payload); !s.ok()) return s;
  auto frame = socket_.recv_frame(request_timeout_);
  if (!frame.ok()) return frame.status();
  if (frame.value().type == kFrameControl) {
    // Error reply.
    ControlMap reply;
    if (auto s = parse_control(frame.value().payload, &reply); !s.ok()) {
      return s;
    }
    if (auto s = status_from_reply(reply); !s.ok()) return s;
    return Status::Internal("fetch reply missing batch frame");
  }
  if (frame.value().type != kFrameBinary) {
    return Status::Internal("unexpected fetch reply frame type");
  }
  std::vector<broker::ConsumedRecord> out;
  if (auto s = decode_fetch_batch(frame.value().payload, &out); !s.ok()) {
    return s;
  }
  return out;
}

Status ControlClient::commit(const std::string& group, const std::string& topic,
                             std::uint32_t partition, std::uint64_t offset) {
  return request({{"op", "commit"},
                  {"group", group},
                  {"topic", topic},
                  {"partition", std::to_string(partition)},
                  {"offset", std::to_string(offset)}})
      .status();
}

Result<std::optional<std::uint64_t>> ControlClient::committed(
    const std::string& group, const std::string& topic,
    std::uint32_t partition) {
  auto reply = request({{"op", "committed"},
                        {"group", group},
                        {"topic", topic},
                        {"partition", std::to_string(partition)}});
  if (!reply.ok()) return reply.status();
  if (reply.value().count("none") != 0u) {
    return std::optional<std::uint64_t>{};
  }
  std::uint64_t offset = 0;
  if (auto s = require_u64(reply.value(), "offset", &offset); !s.ok()) {
    return s;
  }
  return std::optional<std::uint64_t>{offset};
}

Result<std::uint64_t> ControlClient::end_offset(const std::string& topic,
                                                std::uint32_t partition) {
  auto reply = request({{"op", "end_offset"},
                        {"topic", topic},
                        {"partition", std::to_string(partition)}});
  if (!reply.ok()) return reply.status();
  std::uint64_t offset = 0;
  if (auto s = require_u64(reply.value(), "offset", &offset); !s.ok()) {
    return s;
  }
  return offset;
}

Result<std::vector<std::string>> ControlClient::dead_channels() {
  auto reply = request({{"op", "events"}});
  if (!reply.ok()) return reply.status();
  std::vector<std::string> out;
  auto it = reply.value().find("dead_channels");
  if (it == reply.value().end() || it->second.empty()) return out;
  std::size_t start = 0;
  while (start <= it->second.size()) {
    auto comma = it->second.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(it->second.substr(start));
      break;
    }
    out.push_back(it->second.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace pe::transport
