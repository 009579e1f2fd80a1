// FramedSocket: length-framed messages over localhost TCP.
//
// The WAN-hop data plane and the control plane both speak this protocol:
// every message is one frame — 1 ASCII type byte + u32 payload length
// (LE) + payload (see wire.h for the type vocabulary). Localhost TCP is
// the transport.
//
// Error model (everything a retry loop needs is in the code):
//   - connect refusal / reset / EOF / EPIPE -> UNAVAILABLE (transient)
//   - connect / read deadline exceeded      -> TIMEOUT     (transient)
//   - malformed frame (unknown type, oversized length) -> INTERNAL
//
// Sockets are move-only; recv and send may be used from different
// threads, but each direction from one thread at a time.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "broker/record.h"
#include "common/clock.h"
#include "common/serialize.h"
#include "common/status.h"

namespace pe::transport {

/// One received frame: type byte + payload view (backed by a pooled
/// buffer; holding the Frame keeps the bytes alive).
struct Frame {
  char type = 0;
  broker::Payload payload;
};

class FramedSocket {
 public:
  /// Frames above this length are rejected as malformed on both sides.
  static constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

  FramedSocket() = default;
  ~FramedSocket();
  FramedSocket(FramedSocket&& other) noexcept { *this = std::move(other); }
  FramedSocket& operator=(FramedSocket&& other) noexcept;
  FramedSocket(const FramedSocket&) = delete;
  FramedSocket& operator=(const FramedSocket&) = delete;

  /// Connects to 127.0.0.1:port. Refusal -> UNAVAILABLE, deadline ->
  /// TIMEOUT (both transient).
  static Result<FramedSocket> connect_loopback(std::uint16_t port,
                                               Duration timeout);

  /// Wraps an fd already produced by accept(2).
  static FramedSocket adopt(int fd);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends one frame, header and payload in one sendmsg (blocking; the
  /// kernel buffer is the only queue). EPIPE/reset -> UNAVAILABLE.
  Status send_frame(char type, ByteSpan payload);

  /// Receives one frame, waiting up to `timeout` for the first header
  /// byte. TIMEOUT when nothing arrives; UNAVAILABLE on EOF/reset.
  Result<Frame> recv_frame(Duration timeout);

  void close();

 private:
  explicit FramedSocket(int fd) : fd_(fd) {}

  Status read_all(std::uint8_t* data, std::size_t size, TimePoint deadline);

  int fd_ = -1;
};

/// Listening socket on 127.0.0.1. Port 0 picks an ephemeral port
/// (report it via port()).
class FramedListener {
 public:
  FramedListener() = default;
  ~FramedListener();
  FramedListener(FramedListener&& other) noexcept { *this = std::move(other); }
  FramedListener& operator=(FramedListener&& other) noexcept;
  FramedListener(const FramedListener&) = delete;
  FramedListener& operator=(const FramedListener&) = delete;

  static Result<FramedListener> listen_loopback(std::uint16_t port = 0);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Accepts one connection, waiting up to `timeout` -> TIMEOUT when
  /// nobody connects, UNAVAILABLE once close()d.
  Result<FramedSocket> accept(Duration timeout);

  void close();

 private:
  FramedListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace pe::transport
