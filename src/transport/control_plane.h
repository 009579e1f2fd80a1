// ControlPlane: the broker side of the transport layer.
//
// Control/data-plane separation (DESIGN.md §12, after pylabhub): the
// broker never moves bulk data over its control socket. Producers
// register a *channel* — a named shared-memory ring — with the broker;
// consumers look the channel up and map the ring directly. What does run
// over the control socket is small and latency-tolerant: registration,
// lookup, heartbeats, offset commits, and (for WAN-style hops where shm
// is impossible) framed produce/fetch batches.
//
// The control plane also owns producer liveness: every registered ring
// carries a producer heartbeat slot; a GC pass flags channels whose
// heartbeat went stale, confirms the producer process is actually gone
// (kill(pid, 0) == ESRCH), unlinks the stale shm object, and queues a
// dead-channel event that subscribers pick up on their next events poll.
//
// Protocol (all frames per wire.h):
//   'C' {"op": ...}            request -> 'C' reply (error fields on failure)
//   'B' produce batch          -> 'C' {"offset": N} reply
//   'C' {"op":"fetch", ...}    -> 'B' fetch batch (or 'C' error reply)
//   'H' <channel name>         producer heartbeat, no reply
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "transport/framed_socket.h"
#include "transport/wire.h"

namespace pe::transport {

struct ControlPlaneOptions {
  /// TCP port for the control listener; 0 = ephemeral (read back via
  /// port()).
  std::uint16_t port = 0;
  /// A producer whose ring heartbeat is older than this is a GC
  /// candidate (real wall time — the peer is a real OS process).
  Duration heartbeat_timeout = std::chrono::seconds(2);
  /// Background GC cadence.
  Duration gc_interval = std::chrono::milliseconds(500);
};

/// One registered channel: a named shm ring plus its producer identity.
struct ChannelInfo {
  enum class State { kLive, kClosed, kDead };

  std::string name;
  std::string shm_name;
  std::uint64_t capacity = 0;
  std::uint64_t producer_pid = 0;
  std::string topic;
  std::uint32_t partition = 0;
  std::uint64_t registered_ns = 0;
  State state = State::kLive;
  /// The GC already shm_unlink'ed this ring (dead producer, or closed
  /// ring whose producer exited). Existing mappings stay valid.
  bool unlinked = false;
};

constexpr std::string_view to_string(ChannelInfo::State s) {
  switch (s) {
    case ChannelInfo::State::kLive: return "live";
    case ChannelInfo::State::kClosed: return "closed";
    case ChannelInfo::State::kDead: return "dead";
  }
  return "unknown";
}

class ControlPlane {
 public:
  /// `broker` must outlive the control plane; it serves the socket-path
  /// produce/fetch/commit ops.
  ControlPlane(broker::Broker* broker, ControlPlaneOptions options = {});
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Binds the listener and starts the accept + GC threads.
  Status start();
  void stop();

  std::uint16_t port() const { return port_; }

  /// One synchronous GC pass (also what the background thread runs).
  /// Returns the number of channels declared dead this pass.
  std::size_t run_gc_once();

  /// Registry snapshot (tests / stats op).
  std::vector<ChannelInfo> channels() const;

  /// Channels declared dead since process start, in GC order.
  std::vector<std::string> dead_channels() const;

  // Exposed for in-process tests: dispatch one already-parsed request
  // exactly as a connection handler would.
  ControlMap handle_control(const ControlMap& request);

 private:
  void accept_loop();
  void gc_loop();
  void serve_connection(FramedSocket socket);

  ControlMap op_register_ring(const ControlMap& req);
  ControlMap op_lookup(const ControlMap& req);
  ControlMap op_unregister(const ControlMap& req);
  ControlMap op_create_topic(const ControlMap& req);
  ControlMap op_commit(const ControlMap& req);
  ControlMap op_committed(const ControlMap& req);
  ControlMap op_end_offset(const ControlMap& req);
  ControlMap op_events(const ControlMap& req);
  ControlMap op_stats(const ControlMap& req);

  void note_heartbeat(const std::string& channel);

  broker::Broker* const broker_;
  const ControlPlaneOptions options_;
  FramedListener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::thread gc_thread_;
  // Handler threads for accepted connections, joined on stop().
  mutable Mutex conn_mutex_;
  std::vector<std::thread> conn_threads_ PE_GUARDED_BY(conn_mutex_);

  mutable Mutex mutex_;
  std::map<std::string, ChannelInfo> channels_ PE_GUARDED_BY(mutex_);
  std::vector<std::string> dead_log_ PE_GUARDED_BY(mutex_);
  // Per-channel wall-clock time of the last 'H' frame seen on the
  // control socket (a second liveness signal next to the ring slot).
  std::map<std::string, std::uint64_t> control_heartbeat_ns_
      PE_GUARDED_BY(mutex_);
  std::uint64_t gc_passes_ PE_GUARDED_BY(mutex_) = 0;
};

}  // namespace pe::transport
