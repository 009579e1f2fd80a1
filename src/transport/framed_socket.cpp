#include "transport/framed_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/buffer_pool.h"
#include "telemetry/metrics.h"

namespace pe::transport {
namespace {

Status errno_unavailable(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

int poll_one(int fd, short events, Duration timeout) {
  struct ::pollfd pfd {};
  pfd.fd = fd;
  pfd.events = events;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(timeout);
  int timeout_ms = timeout < Duration::zero()
                       ? -1
                       : static_cast<int>(ms.count() > 0 ? ms.count() : 0);
  return ::poll(&pfd, 1, timeout_ms);
}

}  // namespace

FramedSocket::~FramedSocket() { close(); }

FramedSocket& FramedSocket::operator=(FramedSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
    fabric_ = std::move(other.fabric_);
    fabric_from_ = std::move(other.fabric_from_);
    fabric_to_ = std::move(other.fabric_to_);
  }
  return *this;
}

void FramedSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FramedSocket FramedSocket::adopt(int fd) { return FramedSocket(fd); }

void FramedSocket::set_fabric(std::shared_ptr<net::Fabric> fabric,
                              net::SiteId from, net::SiteId to) {
  fabric_ = std::move(fabric);
  fabric_from_ = std::move(from);
  fabric_to_ = std::move(to);
}

Result<FramedSocket> FramedSocket::connect_loopback(std::uint16_t port,
                                                    Duration timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_unavailable("socket()");

  // Non-blocking connect so the deadline is ours, not the kernel's.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  struct ::sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc = ::connect(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    auto s = errno_unavailable("connect(127.0.0.1:" + std::to_string(port) +
                               ")");
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    int ready = poll_one(fd, POLLOUT, timeout);
    if (ready == 0) {
      ::close(fd);
      return Status::Timeout("connect to 127.0.0.1:" + std::to_string(port) +
                             " timed out");
    }
    if (ready < 0) {
      auto s = errno_unavailable("poll(connect)");
      ::close(fd);
      return s;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::Unavailable("connect to 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FramedSocket(fd);
}

Status FramedSocket::send_frame(char type, ByteSpan payload) {
  if (fd_ < 0) return Status::FailedPrecondition("socket closed");
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds 64 MiB");
  }
  if (fabric_) {
    // Charge the emulated link first: a WAN partition must fail the send
    // before any byte hits the real socket, and a degraded link blocks
    // the sender for the emulated transfer time.
    auto transfer = fabric_->transfer(fabric_from_, fabric_to_,
                                      payload.size() + 5);
    if (!transfer.ok()) return transfer.status();
  }
  std::uint8_t header[5];
  header[0] = static_cast<std::uint8_t>(type);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(header + 1, &len, sizeof(len));
  // Header and payload leave in one sendmsg; after a partial write the
  // iovecs are advanced past the bytes the kernel took.
  struct ::iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<std::uint8_t*>(payload.data());
  iov[1].iov_len = payload.size();
  struct ::msghdr msg {};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_unavailable("sendmsg()");
    }
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base =
          static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  // Resolved once: a registry lookup takes a mutex, probes a map and
  // allocates the name, on every frame.
  static tel::Counter& frames_out =
      tel::MetricsRegistry::global().counter("transport.frames_out");
  static tel::Counter& frame_bytes_out =
      tel::MetricsRegistry::global().counter("transport.frame_bytes_out");
  frames_out.add();
  frame_bytes_out.add(sizeof(header) + payload.size());
  return Status::Ok();
}

Status FramedSocket::read_all(std::uint8_t* data, std::size_t size,
                              TimePoint deadline) {
  std::size_t got = 0;
  while (got < size) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Duration::zero()) {
      return Status::Timeout("frame read timed out");
    }
    int ready = poll_one(fd_, POLLIN, remaining);
    if (ready == 0) return Status::Timeout("frame read timed out");
    if (ready < 0) {
      if (errno == EINTR) continue;
      return errno_unavailable("poll(read)");
    }
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n == 0) return Status::Unavailable("peer closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_unavailable("recv()");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Result<Frame> FramedSocket::recv_frame(Duration timeout) {
  if (fd_ < 0) return Status::FailedPrecondition("socket closed");
  const auto deadline = Clock::now() + timeout;
  std::uint8_t header[5];
  if (auto s = read_all(header, sizeof(header), deadline); !s.ok()) return s;
  std::uint32_t len = 0;
  std::memcpy(&len, header + 1, sizeof(len));
  if (len > kMaxFrameBytes) {
    return Status::Internal("frame length " + std::to_string(len) +
                            " exceeds 64 MiB (desynced stream?)");
  }
  // Pooled receive buffer: the Frame's Payload shares it, so the bytes
  // return to the pool when the last view drops.
  auto buf = BufferPool::global().acquire_shared(len);
  buf->resize(len);
  if (len > 0) {
    if (auto s = read_all(buf->data(), len, deadline); !s.ok()) return s;
  }
  Frame frame;
  frame.type = static_cast<char>(header[0]);
  frame.payload = broker::Payload(std::shared_ptr<const Bytes>(buf));
  static tel::Counter& frames_in =
      tel::MetricsRegistry::global().counter("transport.frames_in");
  static tel::Counter& frame_bytes_in =
      tel::MetricsRegistry::global().counter("transport.frame_bytes_in");
  frames_in.add();
  frame_bytes_in.add(sizeof(header) + len);
  return frame;
}

FramedListener::~FramedListener() { close(); }

FramedListener& FramedListener::operator=(FramedListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void FramedListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<FramedListener> FramedListener::listen_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_unavailable("socket()");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct ::sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct ::sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    auto s = errno_unavailable("bind(127.0.0.1:" + std::to_string(port) + ")");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    auto s = errno_unavailable("listen()");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct ::sockaddr*>(&addr), &len);
  return FramedListener(fd, ntohs(addr.sin_port));
}

Result<FramedSocket> FramedListener::accept(Duration timeout) {
  if (fd_ < 0) return Status::Unavailable("listener closed");
  int ready = poll_one(fd_, POLLIN, timeout);
  if (ready == 0) return Status::Timeout("accept timed out");
  if (ready < 0) return errno_unavailable("poll(accept)");
  int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return errno_unavailable("accept()");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FramedSocket::adopt(fd);
}

}  // namespace pe::transport
