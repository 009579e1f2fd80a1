// Transport data-plane shootout (one "BENCH {...}" json line per mode):
//
//   inproc        BoundedQueue<Bytes> between two threads — the ceiling
//                 an in-process pipeline can reach (no framing, no CRC).
//   shm_ring      the shared-memory ring, producer and consumer in
//                 separate REAL PROCESSES (fork) — the same-host
//                 cross-process data plane the broker control plane
//                 brokers.
//   framed_socket length-framed loopback TCP — the WAN-hop path every
//                 byte takes when shm is impossible.
//
// What this proves: the shm ring moves >= 1M records across a process
// boundary with zero loss, and where it sits between the in-process
// ceiling and the socket floor.
//
// Knobs: PE_BENCH_RECORDS (default 1'000'000; PE_BENCH_FULL=1 -> 4M),
//        PE_BENCH_PAYLOAD (default 64 bytes).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "common/clock.h"
#include "common/queue.h"
#include "telemetry/json.h"
#include "transport/framed_socket.h"
#include "transport/shm_ring.h"
#include "transport/wire.h"

namespace {

using namespace pe;

using bench::env_size;

struct RunResult {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  double wall_seconds = 0;
  bool ok = false;
};

void print_row(const char* mode, std::size_t payload_bytes,
               const RunResult& r) {
  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("transport");
  w.key("mode").value(mode);
  w.key("payload_bytes").value(static_cast<std::uint64_t>(payload_bytes));
  w.key("records").value(r.records);
  w.key("bytes").value(r.bytes);
  w.key("wall_seconds").value(r.wall_seconds);
  w.key("records_per_sec")
      .value(r.wall_seconds > 0 ? static_cast<double>(r.records) /
                                      r.wall_seconds
                                : 0.0);
  w.key("mb_per_sec")
      .value(r.wall_seconds > 0
                 ? static_cast<double>(r.bytes) / r.wall_seconds / 1e6
                 : 0.0);
  w.key("ok").value(r.ok);
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);
}

RunResult run_inproc(std::uint64_t records, std::size_t payload_bytes) {
  RunResult result;
  BoundedQueue<Bytes> queue(8192);
  const auto start = Clock::now();
  std::thread producer([&] {
    for (std::uint64_t seq = 0; seq < records; ++seq) {
      Bytes payload(payload_bytes);
      std::memcpy(payload.data(), &seq, sizeof(seq));
      queue.push(std::move(payload));
    }
    queue.close();
  });
  std::uint64_t consumed = 0;
  bool dense = true;
  while (auto item = queue.pop()) {
    std::uint64_t seq = 0;
    std::memcpy(&seq, item->data(), sizeof(seq));
    if (seq != consumed) dense = false;
    consumed += 1;
    result.bytes += item->size();
  }
  producer.join();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.records = consumed;
  result.ok = dense && consumed == records;
  return result;
}

RunResult run_shm_ring(std::uint64_t records, std::size_t payload_bytes) {
  RunResult result;
  const std::string name =
      "/pe_bench_ring_" + std::to_string(static_cast<long long>(::getpid()));
  (void)transport::ShmRing::unlink(name);
  auto ring = transport::ShmRing::create(name, 4ull << 20);
  if (!ring.ok()) return result;

  const auto start = Clock::now();
  const pid_t child = ::fork();
  if (child < 0) return result;
  if (child == 0) {
    // Child = producer process: genuine cross-process delivery.
    Bytes payload(payload_bytes);
    for (std::uint64_t seq = 0; seq < records; ++seq) {
      std::memcpy(payload.data(), &seq, sizeof(seq));
      while (true) {
        auto s = ring.value()->push(payload, std::chrono::milliseconds(200));
        if (s.ok()) break;
        if (!s.is_transient()) ::_exit(2);
      }
    }
    ring.value()->close_producer();
    ::_exit(0);
  }

  auto consumer = transport::ShmRing::open(name);
  if (!consumer.ok()) {
    ::kill(child, SIGKILL);
    (void)::waitpid(child, nullptr, 0);
    return result;
  }
  std::uint64_t consumed = 0;
  bool dense = true;
  while (true) {
    auto popped = consumer.value()->pop();
    if (popped.ok()) {
      std::uint64_t seq = 0;
      std::memcpy(&seq, popped.value().data(), sizeof(seq));
      if (seq != consumed) dense = false;
      consumed += 1;
      result.bytes += popped.value().size();
      if ((consumed & 0x3FF) == 0) consumer.value()->commit();
      continue;
    }
    consumer.value()->commit();
    if (consumer.value()->drained_and_closed()) break;
    std::this_thread::yield();
  }
  int wstatus = 0;
  (void)::waitpid(child, &wstatus, 0);
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.records = consumed;
  result.ok = dense && consumed == records && WIFEXITED(wstatus) &&
              WEXITSTATUS(wstatus) == 0;
  (void)transport::ShmRing::unlink(name);
  return result;
}

RunResult run_framed_socket(std::uint64_t records,
                            std::size_t payload_bytes) {
  RunResult result;
  auto listener = transport::FramedListener::listen_loopback();
  if (!listener.ok()) return result;
  const std::uint16_t port = listener.value().port();

  const auto start = Clock::now();
  std::thread sender([&, port] {
    auto socket =
        transport::FramedSocket::connect_loopback(port, std::chrono::seconds(2));
    if (!socket.ok()) return;
    Bytes payload(payload_bytes);
    for (std::uint64_t seq = 0; seq < records; ++seq) {
      std::memcpy(payload.data(), &seq, sizeof(seq));
      if (!socket.value().send_frame(transport::kFrameBinary, payload).ok()) {
        return;
      }
    }
    socket.value().close();
  });

  auto accepted = listener.value().accept(std::chrono::seconds(2));
  std::uint64_t consumed = 0;
  bool dense = true;
  if (accepted.ok()) {
    while (true) {
      auto frame = accepted.value().recv_frame(std::chrono::seconds(2));
      if (!frame.ok()) break;  // UNAVAILABLE = clean sender close
      std::uint64_t seq = 0;
      std::memcpy(&seq, frame.value().payload.data(), sizeof(seq));
      if (seq != consumed) dense = false;
      consumed += 1;
      result.bytes += frame.value().payload.size();
    }
  }
  sender.join();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.records = consumed;
  result.ok = dense && consumed == records;
  return result;
}

}  // namespace

int main() {
  const std::uint64_t records =
      env_size("PE_BENCH_RECORDS",
               env_size("PE_BENCH_FULL", 0) == 1 ? 4'000'000 : 1'000'000);
  const std::size_t payload = env_size("PE_BENCH_PAYLOAD", 64);

  const auto inproc = run_inproc(records, payload);
  print_row("inproc", payload, inproc);
  const auto shm = run_shm_ring(records, payload);
  print_row("shm_ring", payload, shm);
  // The socket path is slower per record; scale the count down so the
  // bench stays quick, throughput is still representative.
  const auto sock = run_framed_socket(records / 4, payload);
  print_row("framed_socket", payload, sock);

  return (inproc.ok && shm.ok && sock.ok) ? 0 : 2;
}
