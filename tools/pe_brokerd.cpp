// pe_brokerd: the broker control-plane daemon (one real OS process).
//
// Hosts an in-memory Broker plus the transport ControlPlane: producers
// register shared-memory rings here, workers look them up, offsets are
// committed back through it, and the dead-producer GC collects rings
// whose producer process died. Bulk data NEVER flows through this
// process when a ring is used — that is the control/data-plane split.
//
// Prints one machine-readable ready line on stdout:
//   BROKERD ready port=<port> pid=<pid>
// and a stats line on shutdown. Terminates on SIGINT/SIGTERM.
//
// Usage: pe_brokerd [--port N] [--heartbeat-timeout-ms N] [--gc-interval-ms N]
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "broker/broker.h"
#include "common/clock.h"
#include "telemetry/metrics.h"
#include "transport/control_plane.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

std::uint64_t arg_u64(int argc, char** argv, const char* flag,
                      std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pe;

  const auto port = static_cast<std::uint16_t>(arg_u64(argc, argv, "--port", 0));
  const auto hb_timeout_ms = arg_u64(argc, argv, "--heartbeat-timeout-ms", 500);
  const auto gc_interval_ms = arg_u64(argc, argv, "--gc-interval-ms", 100);

  ::signal(SIGINT, handle_signal);
  ::signal(SIGTERM, handle_signal);
  ::signal(SIGPIPE, SIG_IGN);

  auto broker = std::make_shared<broker::Broker>("edge-site", "brokerd");

  transport::ControlPlaneOptions options;
  options.port = port;
  options.heartbeat_timeout = std::chrono::milliseconds(hb_timeout_ms);
  options.gc_interval = std::chrono::milliseconds(gc_interval_ms);
  transport::ControlPlane plane(broker.get(), options);
  if (auto s = plane.start(); !s.ok()) {
    std::fprintf(stderr, "brokerd: %s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("BROKERD ready port=%u pid=%d\n", plane.port(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  while (!g_stop.load()) {
    Clock::sleep_exact(std::chrono::milliseconds(50));
  }

  plane.stop();
  const auto counters = tel::MetricsRegistry::global().counters();
  auto counter = [&](const char* name) -> std::uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const auto stats = broker->stats();
  std::printf(
      "BROKERD stats records_in=%llu records_out=%llu throttled=%llu "
      "heartbeat_misses=%llu dead_producer_gcs=%llu frames_in=%llu "
      "frames_out=%llu\n",
      static_cast<unsigned long long>(stats.records_in),
      static_cast<unsigned long long>(stats.records_out),
      static_cast<unsigned long long>(stats.throttled),
      static_cast<unsigned long long>(counter("transport.heartbeat_misses")),
      static_cast<unsigned long long>(counter("transport.dead_producer_gcs")),
      static_cast<unsigned long long>(counter("transport.frames_in")),
      static_cast<unsigned long long>(counter("transport.frames_out")));
  return 0;
}
