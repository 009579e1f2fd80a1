// Fleet-scale admission benchmark: 100k+ simulated devices against one
// durable broker with per-client quotas and a hot-window memory cap.
//
// What this proves (one "BENCH {...}" json line per run):
//  - the broker sustains a six-figure device fan-in with its in-memory
//    hot window capped (max_hot_window_bytes <= cap) — backpressure via
//    transient throttles + hot-window trim to the durable tier, not OOM;
//  - throttled producers retry and succeed: acked_record_loss == 0
//    (every acked record is consumed back);
//  - end-to-end latency and final consumer lag under the configured load.
//
// Knobs (environment variables):
//   PE_FLEET_DEVICES     simulated device count        (default 100000)
//   PE_FLEET_THREADS     sender threads                 (default 4)
//   PE_FLEET_PARTITIONS  topic partitions               (default 8)
//   PE_FLEET_SECONDS     emulated generation seconds    (default 2)
//   PE_FLEET_RATE_HZ     per-device mean rate, emulated (default 1.0)
//   PE_FLEET_CAP_MB      hot-window cap in MiB          (default 8)
//   PE_FLEET_QUOTA_MBPS  per-client quota MB/s, emul.   (default 0 = off)
//   PE_TIME_SCALE        emulation speed-up             (default 50)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_env.h"
#include "common/clock.h"
#include "broker/broker.h"
#include "scenario/fleet.h"
#include "telemetry/json.h"

namespace {

using namespace pe;
namespace fs = std::filesystem;

using bench::env_size;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return std::atof(v);
}

}  // namespace

int main() {
  const std::size_t devices = env_size("PE_FLEET_DEVICES", 100'000);
  const std::size_t threads = env_size("PE_FLEET_THREADS", 4);
  const auto partitions =
      static_cast<std::uint32_t>(env_size("PE_FLEET_PARTITIONS", 8));
  const double seconds = env_double("PE_FLEET_SECONDS", 2.0);
  const double rate_hz = env_double("PE_FLEET_RATE_HZ", 1.0);
  const std::uint64_t cap_bytes =
      static_cast<std::uint64_t>(env_double("PE_FLEET_CAP_MB", 8.0) *
                                 1024.0 * 1024.0);
  const double quota_mbps = env_double("PE_FLEET_QUOTA_MBPS", 0.0);
  Clock::set_time_scale(env_double("PE_TIME_SCALE", 50.0));

  // Durable broker: the hot-window cap only makes sense when trimmed
  // records survive on disk — that is what lets a capped broker keep
  // acking (and consumers read the trimmed prefix back via cold fetch).
  const auto dir =
      fs::temp_directory_path() / ("pe_bench_fleet_" +
                                   std::to_string(::getpid()));
  fs::remove_all(dir);
  broker::BrokerOptions options;
  options.durable_dir = dir.string();
  options.admission.max_hot_window_bytes = cap_bytes;
  if (quota_mbps > 0.0) {
    options.admission.default_quota.bytes_per_sec = quota_mbps * 1e6;
  }
  auto broker =
      std::make_shared<broker::Broker>("lrz-eu", options, "fleet-broker");

  scenario::FleetConfig config;
  config.devices = devices;
  config.sender_threads = threads;
  config.partitions = partitions;
  config.duration = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(seconds));
  config.mean_rate_hz = rate_hz;
  // hot_max_bytes is per partition while the admission cap is broker-wide:
  // size each partition's hot deque so the whole fleet's steady state sits
  // at ~half the cap, leaving headroom for bursts to throttle-then-drain.
  config.retention.hot_max_bytes =
      std::max<std::uint64_t>(64 * 1024, cap_bytes / (2ull * partitions));

  scenario::FleetGenerator fleet(config, broker);
  auto report = fleet.run();
  if (!report.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 report.status().to_string().c_str());
    fs::remove_all(dir);
    return 1;
  }
  const auto& r = report.value();
  const auto stats = broker->stats();
  const std::uint64_t acked_loss =
      r.records_acked - std::min(r.records_acked, r.records_consumed);

  std::printf(
      "fleet: %zu devices, %zu threads, %u partitions | generated %llu "
      "acked %llu consumed %llu | throttled %llu (broker: %llu, quota %llu) "
      "| hot max %.2f MiB (cap %.2f MiB) | e2e p50 %.2f ms p99 %.2f ms | "
      "lag %llu | wall %.2f s\n",
      devices, threads, partitions,
      static_cast<unsigned long long>(r.records_generated),
      static_cast<unsigned long long>(r.records_acked),
      static_cast<unsigned long long>(r.records_consumed),
      static_cast<unsigned long long>(r.throttled_sends),
      static_cast<unsigned long long>(stats.throttled),
      static_cast<unsigned long long>(stats.quota_rejections),
      static_cast<double>(r.max_hot_window_bytes) / (1024.0 * 1024.0),
      static_cast<double>(cap_bytes) / (1024.0 * 1024.0), r.e2e_p50_ms,
      r.e2e_p99_ms, static_cast<unsigned long long>(r.final_lag),
      r.wall_seconds);

  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("fleet");
  w.key("devices").value(static_cast<std::uint64_t>(devices));
  w.key("sender_threads").value(static_cast<std::uint64_t>(threads));
  w.key("partitions").value(static_cast<std::uint64_t>(partitions));
  w.key("emulated_seconds").value(seconds);
  w.key("records_generated").value(r.records_generated);
  w.key("records_acked").value(r.records_acked);
  w.key("records_consumed").value(r.records_consumed);
  w.key("acked_record_loss").value(acked_loss);
  w.key("dropped_records").value(r.dropped_records);
  w.key("throttled_sends").value(r.throttled_sends);
  w.key("broker_throttled").value(stats.throttled);
  w.key("broker_quota_rejections").value(stats.quota_rejections);
  w.key("max_hot_window_bytes").value(r.max_hot_window_bytes);
  w.key("hot_window_cap_bytes").value(cap_bytes);
  w.key("cap_respected")
      .value(cap_bytes == 0 || r.max_hot_window_bytes <= cap_bytes);
  w.key("e2e_p50_ms").value(r.e2e_p50_ms);
  w.key("e2e_p99_ms").value(r.e2e_p99_ms);
  w.key("e2e_max_ms").value(r.e2e_max_ms);
  w.key("final_lag").value(r.final_lag);
  w.key("wall_seconds").value(r.wall_seconds);
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);

  fs::remove_all(dir);
  const bool ok = acked_loss == 0 && r.dropped_records == 0 &&
                  (cap_bytes == 0 || r.max_hot_window_bytes <= cap_bytes);
  return ok ? 0 : 2;
}
