// socket_64b: framed produce and fetch over the control socket of a forked
// broker process.
//
// The peer runs an in-memory Broker and a ControlPlane, as pe_brokerd
// does. In the benchmark process one connection sends 'B' batches of
// 32 x 64-byte records through ControlClient::produce while a second
// connection fetches them through ControlClient::fetch. Small records
// make the per-frame and per-record wire cost dominate.
//
// Record layout: u64 sequence | u64 due time | 48 seeded bytes.
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "broker/broker.h"
#include "harness.h"
#include "trace.h"
#include "transport/control_client.h"
#include "transport/control_plane.h"

namespace pe::bench_e2e {
namespace {

constexpr std::size_t kBatch = 32;
constexpr std::size_t kRecordBytes = 64;
constexpr std::size_t kFillBytes = kRecordBytes - 16;
constexpr std::size_t kPool = 4096;
constexpr std::uint64_t kWindow = 32768;
constexpr const char* kTopic = "e2e-socket";

/// The peer: serves the broker until the benchmark closes `stop_fd` (or
/// writes to it). The topic is created here with a retention bound well
/// above the in-flight window; the wire op has no retention field.
int broker_peer(int port_fd, int stop_fd) {
  broker::Broker broker("bench-site", "bench-brokerd");
  broker::TopicConfig topic;
  topic.retention.max_bytes = 12ull << 20;
  if (!broker.create_topic(kTopic, topic).ok()) return 2;
  transport::ControlPlane plane(&broker);
  if (!plane.start().ok()) return 3;
  const std::uint16_t port = plane.port();
  if (!write_all(port_fd, &port, sizeof(port))) return 4;
  char byte = 0;
  (void)read_all(stop_fd, &byte, 1);
  plane.stop();
  return 0;
}

class Socket64b final : public Workload {
 public:
  explicit Socket64b(std::uint64_t seed)
      : fill_(seeded_bytes(seed * 1000 + 200, kPool * kFillBytes)) {
    sums_.emplace_back();
    for (std::size_t i = 0; i < kPool; ++i) {
      sums_[0].push_back(checksum(fill_.data() + i * kFillBytes, kFillBytes));
    }
  }

  // A quarter of the closed-loop throughput measured when the benchmark was
  // defined (626k rec/s). At half, a loaded host cut the capacity of
  // whole slices below the rate, and their backlog grew until they ended.
  double open_loop_rate() const override { return 150000; }

  Status setup(const Phase&) override {
    Pipe port_pipe;
    stop_pipe_ = std::make_unique<Pipe>();
    const int port_fd = port_pipe.write_fd;
    const int stop_fd = stop_pipe_->read_fd;
    const int stop_write_fd = stop_pipe_->write_fd;
    peer_ = fork_peer([=] {
      ::close(stop_write_fd);
      return broker_peer(port_fd, stop_fd);
    });
    if (!peer_.running()) return Status::Internal("fork failed");
    port_pipe.close_write();
    stop_pipe_->close_read();
    std::uint16_t port = 0;
    if (!read_all(port_pipe.read_fd, &port, sizeof(port))) {
      return Status::Unavailable("broker peer did not start");
    }
    auto producer = transport::ControlClient::connect(port);
    if (!producer.ok()) return producer.status();
    auto consumer = transport::ControlClient::connect(port);
    if (!consumer.ok()) return consumer.status();
    producer_ = std::move(producer).value();
    consumer_ = std::move(consumer).value();
    // The peer already holds the topic; the op succeeds on an existing one.
    return producer_.create_topic(kTopic, 1);
  }

  Status run(const Phase& phase, PhaseResult& out) override {
    const Schedule schedule = Schedule::start(phase, 1.0, kBatch);
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> delivered{0};
    Sampler lag;
    std::thread producer([&] {
      produce_loop(schedule, lag, sent, delivered, failed);
      done.store(true);
    });

    DeliveryChecker checker(sums_);
    out.latency_ms.set_stride(latency_stride(phase));
    std::uint64_t pos = 0, fetches = 0, empty_fetches = 0, last_receipt = 0;
    const auto give_up =
        Clock::now() + phase.duration + std::chrono::seconds(60);
    while (true) {
      const auto records = traced("transport.fetch", pos, [&] {
        return consumer_.fetch(kTopic, 0, pos, 512);
      });
      fetches += 1;
      if (!records.ok()) {
        failed.fetch_add(1);
        std::fprintf(stderr, "socket_64b fetch: %s\n",
                     records.status().to_string().c_str());
        break;
      }
      if (records.value().empty()) {
        empty_fetches += 1;
        if (done.load() && pos >= sent.load()) break;
        if (Clock::now() > give_up) {
          failed.fetch_add(1);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      const std::uint64_t now = Clock::now_ns();
      for (const auto& r : records.value()) {
        const auto& v = r.record.value;
        std::uint64_t seq = 0, due = 0;
        if (v.size() != kRecordBytes) {
          failed.fetch_add(1);
          continue;
        }
        std::memcpy(&seq, v.data(), 8);
        std::memcpy(&due, v.data() + 8, 8);
        checker.deliver(0, r.offset, seq, checksum(v.data() + 16, kFillBytes));
        out.latency_ms.add(static_cast<double>(now - due) / 1e6);
        pos = r.offset + 1;
      }
      delivered.store(pos, std::memory_order_release);
      last_receipt = now;
    }
    producer.join();

    out.attempted = sent.load();
    checker.finish(0, sent.load());
    out.failed_ops += failed.load();
    out.delivered = checker.delivered();
    out.check_misses = checker.misses();
    if (out.check_misses != 0) {
      std::fprintf(stderr, "socket_64b check: %s\n",
                   checker.describe().c_str());
    }
    out.window_s = window_s(schedule, last_receipt);
    out.generator_lag_ms.merge(lag);

    if (phase.trace && phase.loop == Loop::kClosed) {
      const auto produce_us = Tracer::durations_us("transport.produce");
      out.layer["transport.produce_rtt_us_p50"] =
          percentile_or_nan(produce_us, 0.5);
      out.layer["transport.produce_rtt_us_p99"] =
          percentile_or_nan(produce_us, 0.99);
      out.layer["transport.fetch_rtt_us_p50"] =
          percentile_or_nan(Tracer::durations_us("transport.fetch"), 0.5);
      out.layer["transport.records_per_fetch"] =
          ratio(static_cast<double>(out.delivered),
                static_cast<double>(fetches));
      out.layer["transport.empty_fetch_frac"] =
          ratio(static_cast<double>(empty_fetches),
                static_cast<double>(fetches));
    }
    return Status::Ok();
  }

  void teardown(PhaseResult& out) override {
    producer_ = transport::ControlClient();
    consumer_ = transport::ControlClient();
    if (peer_.running()) {
      stop_pipe_.reset();  // EOF on the peer's stop pipe
      out.peer = reap_peer(peer_);
      out.has_peer = true;
    }
    stop_pipe_.reset();
  }

 private:
  void produce_loop(const Schedule& schedule, Sampler& lag,
                    std::atomic<std::uint64_t>& sent,
                    const std::atomic<std::uint64_t>& delivered,
                    std::atomic<std::uint64_t>& failed) {
    std::uint64_t seq = 0;
    for (std::uint64_t k = 0;; ++k) {
      if (!wait_for_window(schedule, seq, delivered, kWindow)) break;
      const std::uint64_t due = schedule.next(k, lag);
      if (due == 0) break;
      std::vector<broker::Record> records(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t s = seq + i;
        Bytes value(kRecordBytes);
        std::memcpy(value.data(), &s, 8);
        std::memcpy(value.data() + 8, &due, 8);
        std::memcpy(value.data() + 16, fill_.data() + (s % kPool) * kFillBytes,
                    kFillBytes);
        records[i].value = std::move(value);
      }
      const auto offset = traced("transport.produce", seq, [&] {
        return producer_.produce(kTopic, 0, std::move(records));
      });
      if (!offset.ok()) {
        failed.fetch_add(1);
        std::fprintf(stderr, "socket_64b produce: %s\n",
                     offset.status().to_string().c_str());
        break;
      }
      seq += kBatch;
      sent.store(seq);
    }
  }

  std::vector<std::uint8_t> fill_;
  std::vector<std::vector<std::uint64_t>> sums_;
  PeerProcess peer_;
  std::unique_ptr<Pipe> stop_pipe_;
  transport::ControlClient producer_;
  transport::ControlClient consumer_;
};

}  // namespace

std::unique_ptr<Workload> make_socket_64b(std::uint64_t seed) {
  return std::make_unique<Socket64b>(seed);
}

}  // namespace pe::bench_e2e
