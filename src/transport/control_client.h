// ControlClient: typed request helpers over one control-plane socket.
//
// Producers and workers are separate OS processes; everything they need
// from the broker — channel registration/lookup, offset commits, the
// socket produce/fetch path — goes through this thin client. Each call
// is one request frame + one reply frame on the same socket (the control
// plane serves requests on a connection in order).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "broker/record.h"
#include "common/clock.h"
#include "common/status.h"
#include "transport/framed_socket.h"
#include "transport/wire.h"

namespace pe::transport {

/// lookup() result.
struct ChannelLocation {
  std::string shm_name;
  std::uint64_t capacity = 0;
  std::string topic;
  std::uint32_t partition = 0;
  std::uint64_t producer_pid = 0;
  std::string state;  // "live" | "closed" | "dead"
};

class ControlClient {
 public:
  /// Connects to the control plane on 127.0.0.1:`port`.
  static Result<ControlClient> connect(std::uint16_t port,
                                       Duration timeout =
                                           std::chrono::seconds(2));

  ControlClient() = default;
  ControlClient(ControlClient&&) = default;
  ControlClient& operator=(ControlClient&&) = default;

  bool valid() const { return socket_.valid(); }

  /// Per-request reply deadline (default 5 s — generous; failures should
  /// be refusals, not stalls).
  void set_request_timeout(Duration timeout) { request_timeout_ = timeout; }

  /// Raw request/reply: send a 'C' frame, wait for the 'C' reply, and
  /// fold any error fields back into the returned Status.
  Result<ControlMap> request(const ControlMap& req);

  // --- typed ops ---
  Status ping();
  Status register_ring(const std::string& channel, const std::string& shm_name,
                       std::uint64_t capacity, const std::string& topic,
                       std::uint32_t partition);
  Result<ChannelLocation> lookup(const std::string& channel);
  Status unregister(const std::string& channel);
  Status create_topic(const std::string& topic, std::uint32_t partitions = 1);

  /// Fire-and-forget 'H' heartbeat for a channel (no reply frame).
  Status heartbeat(const std::string& channel);

  /// Socket produce path: 'B' batch out, 'C' {"offset"} back. Throttles
  /// come back as Status::Throttled with the broker's retry-after hint.
  Result<std::uint64_t> produce(const std::string& topic,
                                std::uint32_t partition,
                                std::vector<broker::Record> records,
                                const std::string& client_id = {});

  /// Socket fetch path: 'C' request out, 'B' batch back.
  Result<std::vector<broker::ConsumedRecord>> fetch(
      const std::string& topic, std::uint32_t partition, std::uint64_t offset,
      std::uint64_t max_records = 512, std::uint64_t max_bytes = 8ull << 20);

  Status commit(const std::string& group, const std::string& topic,
                std::uint32_t partition, std::uint64_t offset);
  Result<std::optional<std::uint64_t>> committed(const std::string& group,
                                                 const std::string& topic,
                                                 std::uint32_t partition);
  Result<std::uint64_t> end_offset(const std::string& topic,
                                   std::uint32_t partition);

  /// Channels the control plane has GC'd as dead (cumulative).
  Result<std::vector<std::string>> dead_channels();

  FramedSocket& socket() { return socket_; }

 private:
  explicit ControlClient(FramedSocket socket) : socket_(std::move(socket)) {}

  FramedSocket socket_;
  Duration request_timeout_ = std::chrono::seconds(5);
};

}  // namespace pe::transport
