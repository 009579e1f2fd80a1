#include "transport/control_plane.h"

#include <signal.h>

#include <cerrno>

#include "telemetry/metrics.h"
#include "transport/shm_ring.h"

namespace pe::transport {
namespace {

ControlMap error_reply(const Status& status) {
  ControlMap reply;
  status_to_reply(status, &reply);
  return reply;
}

ControlMap ok_reply() { return ControlMap{{"ok", "1"}}; }

}  // namespace

ControlPlane::ControlPlane(broker::Broker* broker, ControlPlaneOptions options)
    : broker_(broker), options_(options) {}

ControlPlane::~ControlPlane() { stop(); }

Status ControlPlane::start() {
  auto listener = FramedListener::listen_loopback(options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());
  port_ = listener_.port();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  gc_thread_ = std::thread([this] { gc_loop(); });
  return Status::Ok();
}

void ControlPlane::stop() {
  if (!running_.exchange(false)) return;
  // The accept loop sees running_ within one accept timeout. Close the
  // listener only after it has exited: closing under a concurrent
  // accept() races on the descriptor.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (gc_thread_.joinable()) gc_thread_.join();
  std::vector<std::thread> conns;
  {
    MutexLock lock(conn_mutex_);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) {
    if (t.joinable()) t.join();
  }
}

void ControlPlane::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_.accept(std::chrono::milliseconds(200));
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kTimeout) continue;
      // Listener closed (stop()) or hard error: exit the loop.
      return;
    }
    MutexLock lock(conn_mutex_);
    conn_threads_.emplace_back(
        [this, sock = std::make_shared<FramedSocket>(
                   std::move(accepted.value()))]() mutable {
          serve_connection(std::move(*sock));
        });
  }
}

void ControlPlane::gc_loop() {
  auto last = Clock::now();
  while (running_.load(std::memory_order_acquire)) {
    Clock::sleep_exact(std::chrono::milliseconds(20));
    if (Clock::now() - last < options_.gc_interval) continue;
    last = Clock::now();
    run_gc_once();
  }
}

void ControlPlane::serve_connection(FramedSocket socket) {
  while (running_.load(std::memory_order_acquire)) {
    auto frame = socket.recv_frame(std::chrono::milliseconds(200));
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kTimeout) continue;
      return;  // peer went away (UNAVAILABLE) or socket broke
    }
    switch (frame.value().type) {
      case kFrameHeartbeat: {
        const auto& p = frame.value().payload;
        note_heartbeat(std::string(reinterpret_cast<const char*>(p.data()),
                                   p.size()));
        break;  // no reply
      }
      case kFrameControl: {
        ControlMap request;
        ControlMap reply;
        if (auto s = parse_control(frame.value().payload, &request); !s.ok()) {
          reply = error_reply(s);
        } else if (request.count("op") != 0u && request.at("op") == "fetch") {
          // Fetch replies are binary frames; handle inline so the reply
          // type can differ from 'C'.
          std::string topic, client;
          std::uint64_t partition = 0, offset = 0;
          std::uint64_t max_records = 512, max_bytes = 8ull << 20;
          Status s = require_field(request, "topic", &topic);
          if (s.ok()) s = require_u64(request, "partition", &partition);
          if (s.ok()) s = require_u64(request, "offset", &offset);
          if (request.count("max_records") != 0u && s.ok()) {
            s = require_u64(request, "max_records", &max_records);
          }
          if (request.count("max_bytes") != 0u && s.ok()) {
            s = require_u64(request, "max_bytes", &max_bytes);
          }
          if (auto it = request.find("client"); it != request.end()) {
            client = it->second;
          }
          if (s.ok()) {
            broker::FetchSpec spec;
            spec.offset = offset;
            spec.max_records = static_cast<std::size_t>(max_records);
            spec.max_bytes = max_bytes;
            auto fetched = broker_->fetch(
                topic, static_cast<std::uint32_t>(partition), spec, client);
            if (fetched.ok()) {
              auto payload = encode_fetch_batch(
                  topic, static_cast<std::uint32_t>(partition),
                  fetched.value());
              (void)socket.send_frame(kFrameBinary, payload);
              continue;
            }
            s = fetched.status();
          }
          reply = error_reply(s);
        } else {
          reply = handle_control(request);
        }
        auto payload = encode_control(reply);
        if (auto s = socket.send_frame(kFrameControl, payload); !s.ok()) {
          return;
        }
        break;
      }
      case kFrameBinary: {
        // Produce batch over the socket path (WAN hop): decode, append,
        // reply with the first offset or the admission throttle.
        ProduceBatch batch;
        ControlMap reply;
        if (auto s = decode_produce_batch(frame.value().payload, &batch);
            !s.ok()) {
          reply = error_reply(s);
        } else {
          auto offset = broker_->produce(batch.topic, batch.partition,
                                         std::move(batch.records),
                                         batch.client_id);
          if (offset.ok()) {
            reply["offset"] = std::to_string(offset.value());
          } else {
            reply = error_reply(offset.status());
          }
        }
        auto payload = encode_control(reply);
        if (auto s = socket.send_frame(kFrameControl, payload); !s.ok()) {
          return;
        }
        break;
      }
      default:
        // Unknown type byte: drop the frame, keep the connection — the
        // vocabulary is open for extension.
        tel::MetricsRegistry::global()
            .counter("transport.unknown_frames")
            .add();
        break;
    }
  }
}

ControlMap ControlPlane::handle_control(const ControlMap& request) {
  std::string op;
  if (auto s = require_field(request, "op", &op); !s.ok()) {
    return error_reply(s);
  }
  if (op == "ping") return ok_reply();
  if (op == "register_ring") return op_register_ring(request);
  if (op == "lookup") return op_lookup(request);
  if (op == "unregister") return op_unregister(request);
  if (op == "create_topic") return op_create_topic(request);
  if (op == "commit") return op_commit(request);
  if (op == "committed") return op_committed(request);
  if (op == "end_offset") return op_end_offset(request);
  if (op == "events") return op_events(request);
  if (op == "stats") return op_stats(request);
  return error_reply(Status::InvalidArgument("unknown op '" + op + "'"));
}

ControlMap ControlPlane::op_register_ring(const ControlMap& req) {
  ChannelInfo info;
  std::uint64_t pid = 0, partition = 0;
  Status s = require_field(req, "channel", &info.name);
  if (s.ok()) s = require_field(req, "shm", &info.shm_name);
  if (s.ok()) s = require_u64(req, "capacity", &info.capacity);
  if (s.ok()) s = require_u64(req, "pid", &pid);
  if (s.ok()) s = require_field(req, "topic", &info.topic);
  if (s.ok()) s = require_u64(req, "partition", &partition);
  if (!s.ok()) return error_reply(s);
  info.producer_pid = pid;
  info.partition = static_cast<std::uint32_t>(partition);
  info.registered_ns = Clock::now_ns();

  // The channel's topic is created on demand so a producer can register
  // before any admin step ran.
  if (!broker_->has_topic(info.topic)) {
    (void)broker_->create_topic(info.topic, broker::TopicConfig{});
  }

  MutexLock lock(mutex_);
  auto [it, inserted] = channels_.emplace(info.name, info);
  if (!inserted) {
    if (it->second.state == ChannelInfo::State::kLive) {
      return error_reply(Status::AlreadyExists("channel '" + info.name +
                                               "' already registered"));
    }
    it->second = info;  // re-registration over a closed/dead channel
  }
  control_heartbeat_ns_[info.name] = Clock::now_ns();
  tel::MetricsRegistry::global().counter("transport.channels_registered")
      .add();
  return ok_reply();
}

ControlMap ControlPlane::op_lookup(const ControlMap& req) {
  std::string channel;
  if (auto s = require_field(req, "channel", &channel); !s.ok()) {
    return error_reply(s);
  }
  MutexLock lock(mutex_);
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return error_reply(Status::NotFound("channel '" + channel + "'"));
  }
  ControlMap reply = ok_reply();
  reply["shm"] = it->second.shm_name;
  reply["capacity"] = std::to_string(it->second.capacity);
  reply["topic"] = it->second.topic;
  reply["partition"] = std::to_string(it->second.partition);
  reply["pid"] = std::to_string(it->second.producer_pid);
  reply["state"] = std::string(to_string(it->second.state));
  return reply;
}

ControlMap ControlPlane::op_unregister(const ControlMap& req) {
  std::string channel;
  if (auto s = require_field(req, "channel", &channel); !s.ok()) {
    return error_reply(s);
  }
  MutexLock lock(mutex_);
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return error_reply(Status::NotFound("channel '" + channel + "'"));
  }
  it->second.state = ChannelInfo::State::kClosed;
  return ok_reply();
}

ControlMap ControlPlane::op_create_topic(const ControlMap& req) {
  std::string topic;
  std::uint64_t partitions = 1;
  Status s = require_field(req, "topic", &topic);
  if (s.ok() && req.count("partitions") != 0u) {
    s = require_u64(req, "partitions", &partitions);
  }
  if (!s.ok()) return error_reply(s);
  broker::TopicConfig config;
  config.partitions = static_cast<std::uint32_t>(partitions);
  auto created = broker_->create_topic(topic, config);
  if (!created.ok() && created.code() != StatusCode::kAlreadyExists) {
    return error_reply(created);
  }
  return ok_reply();
}

ControlMap ControlPlane::op_commit(const ControlMap& req) {
  std::string group, topic;
  std::uint64_t partition = 0, offset = 0;
  Status s = require_field(req, "group", &group);
  if (s.ok()) s = require_field(req, "topic", &topic);
  if (s.ok()) s = require_u64(req, "partition", &partition);
  if (s.ok()) s = require_u64(req, "offset", &offset);
  if (!s.ok()) return error_reply(s);
  auto committed = broker_->coordinator().commit_offset(
      group, broker::TopicPartition{topic, static_cast<std::uint32_t>(partition)},
      offset);
  if (!committed.ok()) return error_reply(committed);
  return ok_reply();
}

ControlMap ControlPlane::op_committed(const ControlMap& req) {
  std::string group, topic;
  std::uint64_t partition = 0;
  Status s = require_field(req, "group", &group);
  if (s.ok()) s = require_field(req, "topic", &topic);
  if (s.ok()) s = require_u64(req, "partition", &partition);
  if (!s.ok()) return error_reply(s);
  auto offset = broker_->coordinator().committed_offset(
      group,
      broker::TopicPartition{topic, static_cast<std::uint32_t>(partition)});
  ControlMap reply = ok_reply();
  if (offset.has_value()) {
    reply["offset"] = std::to_string(*offset);
  } else {
    reply["none"] = "1";
  }
  return reply;
}

ControlMap ControlPlane::op_end_offset(const ControlMap& req) {
  std::string topic;
  std::uint64_t partition = 0;
  Status s = require_field(req, "topic", &topic);
  if (s.ok()) s = require_u64(req, "partition", &partition);
  if (!s.ok()) return error_reply(s);
  auto end = broker_->end_offset(topic, static_cast<std::uint32_t>(partition));
  if (!end.ok()) return error_reply(end.status());
  ControlMap reply = ok_reply();
  reply["offset"] = std::to_string(end.value());
  return reply;
}

ControlMap ControlPlane::op_events(const ControlMap&) {
  MutexLock lock(mutex_);
  std::string joined;
  for (const auto& name : dead_log_) {
    if (!joined.empty()) joined.push_back(',');
    joined += name;
  }
  ControlMap reply = ok_reply();
  reply["dead_channels"] = joined;
  return reply;
}

ControlMap ControlPlane::op_stats(const ControlMap&) {
  MutexLock lock(mutex_);
  std::size_t live = 0, closed = 0, dead = 0;
  for (const auto& [name, info] : channels_) {
    switch (info.state) {
      case ChannelInfo::State::kLive: ++live; break;
      case ChannelInfo::State::kClosed: ++closed; break;
      case ChannelInfo::State::kDead: ++dead; break;
    }
  }
  ControlMap reply = ok_reply();
  reply["channels_live"] = std::to_string(live);
  reply["channels_closed"] = std::to_string(closed);
  reply["channels_dead"] = std::to_string(dead);
  reply["gc_passes"] = std::to_string(gc_passes_);
  return reply;
}

void ControlPlane::note_heartbeat(const std::string& channel) {
  MutexLock lock(mutex_);
  control_heartbeat_ns_[channel] = Clock::now_ns();
}

std::size_t ControlPlane::run_gc_once() {
  // Snapshot the live channels, probe their rings with the registry lock
  // released (open_monitor maps a file), then re-take it to apply.
  std::vector<ChannelInfo> live;
  std::vector<ChannelInfo> closed_pending;
  {
    MutexLock lock(mutex_);
    gc_passes_ += 1;
    for (const auto& [name, info] : channels_) {
      if (info.state == ChannelInfo::State::kLive) {
        live.push_back(info);
      } else if (info.state == ChannelInfo::State::kClosed &&
                 !info.unlinked) {
        closed_pending.push_back(info);
      }
    }
  }

  const auto timeout_ns = static_cast<std::uint64_t>(
      options_.heartbeat_timeout.count());
  auto& reg = tel::MetricsRegistry::global();
  std::size_t declared_dead = 0;

  for (const auto& info : live) {
    bool closed = false;
    bool stale = false;
    auto ring = ShmRing::open_monitor(info.shm_name);
    if (ring.ok()) {
      closed = ring.value()->producer_closed();
      stale = ring.value()->heartbeat_age_ns() > timeout_ns;
    } else {
      // Ring vanished under us (producer crashed before or during
      // registration cleanup): treat as stale.
      stale = true;
    }
    if (closed) {
      MutexLock lock(mutex_);
      auto it = channels_.find(info.name);
      if (it != channels_.end() &&
          it->second.state == ChannelInfo::State::kLive) {
        it->second.state = ChannelInfo::State::kClosed;
      }
      continue;
    }
    if (!stale) continue;

    reg.counter("transport.heartbeat_misses").add();
    // A stale heartbeat alone is not death — a stalled-but-alive producer
    // (paused in a debugger, long GC) keeps its ring. Only a confirmed
    // dead pid is collected.
    const pid_t pid = static_cast<pid_t>(info.producer_pid);
    const bool pid_gone =
        pid <= 0 || (::kill(pid, 0) != 0 && errno == ESRCH);
    if (!pid_gone) continue;

    (void)ShmRing::unlink(info.shm_name);
    {
      MutexLock lock(mutex_);
      auto it = channels_.find(info.name);
      if (it == channels_.end() ||
          it->second.state != ChannelInfo::State::kLive) {
        continue;
      }
      it->second.state = ChannelInfo::State::kDead;
      it->second.unlinked = true;
      dead_log_.push_back(info.name);
    }
    reg.counter("transport.dead_producer_gcs").add();
    declared_dead += 1;
  }

  // Cleanly closed rings: once the producer process itself has exited,
  // nothing will re-open the name — reclaim the shm object. A consumer
  // still draining keeps its mapping; unlink only removes the name.
  for (const auto& info : closed_pending) {
    const pid_t pid = static_cast<pid_t>(info.producer_pid);
    const bool pid_gone =
        pid <= 0 || (::kill(pid, 0) != 0 && errno == ESRCH);
    if (!pid_gone) continue;
    (void)ShmRing::unlink(info.shm_name);
    MutexLock lock(mutex_);
    auto it = channels_.find(info.name);
    if (it != channels_.end() &&
        it->second.state == ChannelInfo::State::kClosed) {
      it->second.unlinked = true;
      reg.counter("transport.closed_ring_unlinks").add();
    }
  }
  return declared_dead;
}

std::vector<ChannelInfo> ControlPlane::channels() const {
  MutexLock lock(mutex_);
  std::vector<ChannelInfo> out;
  out.reserve(channels_.size());
  for (const auto& [name, info] : channels_) out.push_back(info);
  return out;
}

std::vector<std::string> ControlPlane::dead_channels() const {
  MutexLock lock(mutex_);
  return dead_log_;
}

}  // namespace pe::transport
