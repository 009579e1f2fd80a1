// ring_64b: a forked edge producer pushes 64-byte sequenced records into a
// 4 MiB ShmRing registered with a ControlPlane; the benchmark process pops
// them and commits its position over the control socket, as pe_worker
// does.
//
// No codec and no broker append sit on this data path: push, pop, CRC and
// the empty/full wait policy are the whole cost.
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
#include "transport/shm_ring.h"

namespace pe::bench_e2e {
namespace {

constexpr std::uint64_t kRingBytes = 4ull << 20;
constexpr std::size_t kRecordBytes = 64;
constexpr std::size_t kFillBytes = kRecordBytes - 16;
constexpr std::size_t kPool = 4096;
// Open-loop batches arrive several times per 200 us empty-ring sleep, so the
// p50 does not depend on where each sleep falls relative to a batch.
constexpr std::size_t kOpenBatch = 32;
constexpr std::uint64_t kCommitEvery = 4096;
constexpr const char* kTopic = "e2e-ring";
constexpr const char* kGroup = "e2e-ring-workers";

/// What the producer peer reports back once its stream is closed.
struct PeerReport {
  std::uint64_t pushed = 0;
  std::uint64_t full_waits = 0;
  std::uint64_t push_failures = 0;
  std::vector<double> push_ns;
  std::vector<double> lag_ms;
};

class Ring64b final : public Workload {
 public:
  explicit Ring64b(std::uint64_t seed)
      : fill_(seeded_bytes(seed * 1000 + 300, kPool * kFillBytes)) {
    sums_.emplace_back();
    for (std::size_t i = 0; i < kPool; ++i) {
      sums_[0].push_back(checksum(fill_.data() + i * kFillBytes, kFillBytes));
    }
  }

  // A quarter of the closed-loop throughput measured when the benchmark was
  // defined (3.06M rec/s). At half, a loaded host cut the capacity of
  // whole runs to 1.1-1.9M rec/s, and the p50 latency reached 50 ms.
  double open_loop_rate() const override { return 750000; }

  Status setup(const Phase& phase) override {
    to_peer_ = std::make_unique<Pipe>();
    from_peer_ = std::make_unique<Pipe>();
    channel_ = "e2e-ring-" + std::to_string(::getpid()) + "-" +
               std::to_string(++phases_);
    // Fork first: the peer must not inherit the control plane's threads.
    const int in_fd = to_peer_->read_fd;
    const int out_fd = from_peer_->write_fd;
    const int close_a = to_peer_->write_fd;
    const int close_b = from_peer_->read_fd;
    const Phase peer_phase = phase;
    peer_ = fork_peer([=, this] {
      ::close(close_a);
      ::close(close_b);
      return producer_peer(peer_phase, in_fd, out_fd);
    });
    if (!peer_.running()) return Status::Internal("fork failed");
    to_peer_->close_read();
    from_peer_->close_write();

    broker_ = std::make_unique<broker::Broker>("bench-site", "bench-ring");
    transport::ControlPlaneOptions options;
    options.heartbeat_timeout = std::chrono::seconds(30);
    plane_ = std::make_unique<transport::ControlPlane>(broker_.get(), options);
    if (auto s = plane_->start(); !s.ok()) return s;
    const std::uint16_t port = plane_->port();
    if (!write_all(to_peer_->write_fd, &port, sizeof(port))) {
      return Status::Unavailable("producer peer gone");
    }
    auto client = transport::ControlClient::connect(port);
    if (!client.ok()) return client.status();
    client_ = std::move(client).value();
    char ready = 0;
    if (!read_all(from_peer_->read_fd, &ready, 1) || ready != 'R') {
      return Status::Unavailable("producer peer did not register its ring");
    }
    auto loc = client_.lookup(channel_);
    if (!loc.ok()) return loc.status();
    topic_ = loc.value().topic;
    partition_ = loc.value().partition;
    auto ring = transport::ShmRing::open(loc.value().shm_name);
    if (!ring.ok()) return ring.status();
    ring_ = std::move(ring).value();
    // Both ends hold the mapping now; dropping the name keeps /dev/shm
    // clean however the run ends.
    (void)transport::ShmRing::unlink(loc.value().shm_name);
    return Status::Ok();
  }

  Status run(const Phase& phase, PhaseResult& out) override {
    const Schedule schedule = Schedule::start(phase, 1.0, kOpenBatch);
    const std::uint64_t go[2] = {schedule.t0_ns, schedule.deadline_ns};
    if (!write_all(to_peer_->write_fd, go, sizeof(go))) {
      return Status::Unavailable("producer peer gone");
    }

    DeliveryChecker checker(sums_);
    out.latency_ms.set_stride(latency_stride(phase));
    std::uint64_t consumed = 0, empty_pops = 0, last_receipt = 0;
    const auto give_up =
        Clock::now() + phase.duration + std::chrono::seconds(60);
    auto commit_position = [&] {
      ring_->commit();
      ScopedSpan span("transport.commit", consumed);
      if (!client_.commit(kGroup, topic_, partition_, consumed).ok()) {
        out.failed_ops += 1;
      }
    };
    while (true) {
      const auto popped =
          traced("ring.pop", consumed, [&] { return ring_->pop(); });
      if (popped.ok()) {
        const broker::Payload& v = popped.value();
        std::uint64_t seq = 0, due = 0;
        if (v.size() != kRecordBytes) {
          out.failed_ops += 1;
          break;
        }
        std::memcpy(&seq, v.data(), 8);
        std::memcpy(&due, v.data() + 8, 8);
        const std::uint64_t now = Clock::now_ns();
        checker.deliver(0, consumed, seq, checksum(v.data() + 16, kFillBytes));
        out.latency_ms.add(static_cast<double>(now - due) / 1e6);
        last_receipt = now;
        consumed += 1;
        if (consumed % kCommitEvery == 0) commit_position();
        continue;
      }
      if (popped.status().code() != StatusCode::kNotFound) {
        out.failed_ops += 1;  // CRC mismatch: the ring is poisoned
        std::fprintf(stderr, "ring_64b pop: %s\n",
                     popped.status().to_string().c_str());
        break;
      }
      empty_pops += 1;
      ring_->commit();
      if (ring_->drained_and_closed()) break;
      if (Clock::now() > give_up) {
        out.failed_ops += 1;
        break;
      }
      Clock::sleep_exact(std::chrono::microseconds(200));
    }
    commit_position();

    PeerReport report;
    if (!read_report(report)) {
      out.failed_ops += 1;
      return Status::Unavailable("producer peer sent no report");
    }
    out.attempted = report.pushed;
    out.failed_ops += report.push_failures + ring_->stats().crc_errors;
    checker.finish(0, report.pushed);
    out.delivered = checker.delivered();
    out.check_misses = checker.misses();
    if (out.check_misses != 0) {
      std::fprintf(stderr, "ring_64b check: %s\n", checker.describe().c_str());
    }
    out.window_s = window_s(schedule, last_receipt);
    for (double lag : report.lag_ms) out.generator_lag_ms.add(lag);

    if (phase.trace && phase.loop == Loop::kClosed) {
      out.layer["ring.push_ns_p50"] = percentile_or_nan(report.push_ns, 0.5);
      std::vector<double> pop_ns = Tracer::durations_us("ring.pop");
      for (double& v : pop_ns) v *= 1e3;
      out.layer["ring.pop_ns_p50"] = percentile_or_nan(pop_ns, 0.5);
      out.layer["ring.empty_pops_per_rec"] =
          ratio(static_cast<double>(empty_pops), static_cast<double>(consumed));
      out.layer["ring.full_waits_per_krec"] =
          ratio(1000.0 * static_cast<double>(report.full_waits),
              static_cast<double>(report.pushed));
    }
    return Status::Ok();
  }

  void teardown(PhaseResult& out) override {
    ring_.reset();
    if (peer_.running()) {
      to_peer_.reset();  // EOF: the peer exits
      out.peer = reap_peer(peer_);
      out.has_peer = true;
    }
    to_peer_.reset();
    from_peer_.reset();
    client_ = transport::ControlClient();
    if (plane_) plane_->stop();
    plane_.reset();
    broker_.reset();
  }

 private:
  /// The forked edge producer: creates and registers the ring, waits for
  /// the start time, pushes until the phase ends, closes the stream and
  /// reports back.
  int producer_peer(const Phase& phase, int in_fd, int out_fd) {
    std::uint16_t port = 0;
    if (!read_all(in_fd, &port, sizeof(port))) return 3;
    auto client = transport::ControlClient::connect(port);
    if (!client.ok()) return 4;
    const std::string shm = "/pe_e2e_" + channel_;
    (void)transport::ShmRing::unlink(shm);
    auto created = transport::ShmRing::create(shm, kRingBytes);
    if (!created.ok()) return 5;
    transport::ShmRing& ring = *created.value();
    if (!client.value()
             .register_ring(channel_, shm, ring.capacity(), kTopic, 0)
             .ok()) {
      (void)transport::ShmRing::unlink(shm);
      return 6;
    }
    const char ready = 'R';
    if (!write_all(out_fd, &ready, 1)) return 7;
    std::uint64_t go[2] = {0, 0};
    if (!read_all(in_fd, go, sizeof(go))) return 0;  // setup-only phase

    Schedule schedule;
    schedule.loop = phase.loop;
    schedule.t0_ns = go[0];
    schedule.deadline_ns = go[1];
    schedule.batch_interval_ns =
        1e9 * static_cast<double>(kOpenBatch) / phase.rate_rps;
    const std::size_t batch = phase.loop == Loop::kClosed ? 64 : kOpenBatch;
    PeerReport report;
    Sampler push_ns(phase.trace ? 16 : 1);
    Sampler lag_ms;
    std::uint8_t record[kRecordBytes];
    std::uint64_t seq = 0;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due = schedule.next(k, lag_ms);
      if (due == 0) break;
      for (std::size_t i = 0; i < batch; ++i, ++seq) {
        std::memcpy(record, &seq, 8);
        std::memcpy(record + 8, &due, 8);
        std::memcpy(record + 16, fill_.data() + (seq % kPool) * kFillBytes,
                    kFillBytes);
        const std::uint64_t start = phase.trace ? Clock::now_ns() : 0;
        Status s = ring.push(ByteSpan(record, kRecordBytes),
                             std::chrono::milliseconds(200));
        while (!s.ok() && s.is_transient()) {
          s = ring.push(ByteSpan(record, kRecordBytes),
                        std::chrono::milliseconds(200));
        }
        if (phase.trace) {
          push_ns.add(static_cast<double>(Clock::now_ns() - start));
        }
        if (!s.ok()) {
          report.push_failures += 1;
          break;
        }
      }
      ring.heartbeat();
      if (report.push_failures != 0) break;
    }
    ring.close_producer();
    report.pushed = seq;
    report.full_waits = ring.stats().full_waits;
    const std::uint64_t counts[3] = {report.pushed, report.full_waits,
                                     report.push_failures};
    if (!write_all(out_fd, counts, sizeof(counts)) ||
        !write_doubles(out_fd, push_ns.values()) ||
        !write_doubles(out_fd, lag_ms.values())) {
      return 9;
    }
    // Hold the ring until the benchmark is done with it.
    char byte = 0;
    (void)read_all(in_fd, &byte, 1);
    (void)client.value().unregister(channel_);
    return 0;
  }

  bool read_report(PeerReport& report) {
    std::uint64_t counts[3] = {0, 0, 0};
    if (!read_all(from_peer_->read_fd, counts, sizeof(counts))) return false;
    report.pushed = counts[0];
    report.full_waits = counts[1];
    report.push_failures = counts[2];
    return read_doubles(from_peer_->read_fd, report.push_ns) &&
           read_doubles(from_peer_->read_fd, report.lag_ms);
  }

  std::vector<std::uint8_t> fill_;
  std::vector<std::vector<std::uint64_t>> sums_;
  std::uint64_t phases_ = 0;
  std::string channel_;
  std::string topic_;
  std::uint32_t partition_ = 0;
  PeerProcess peer_;
  std::unique_ptr<Pipe> to_peer_;
  std::unique_ptr<Pipe> from_peer_;
  std::unique_ptr<broker::Broker> broker_;
  std::unique_ptr<transport::ControlPlane> plane_;
  transport::ControlClient client_;
  std::unique_ptr<transport::ShmRing> ring_;
};

}  // namespace

std::unique_ptr<Workload> make_ring_64b(std::uint64_t seed) {
  return std::make_unique<Ring64b>(seed);
}

}  // namespace pe::bench_e2e
