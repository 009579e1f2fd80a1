// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench binary reproduces one table/figure of the paper by driving
// full EdgeToCloudPipeline runs and printing one row per configuration.
// Knobs (environment variables):
//   PE_BENCH_MESSAGES  messages per device per run   (default: per-bench)
//   PE_BENCH_REPEATS   repeats per configuration     (default 1; paper: 3)
//   PE_TIME_SCALE      emulation speed-up for WAN benches (default 25)
//   PE_BENCH_FULL      set to 1 for paper-scale runs (512 msgs, 3 repeats)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.h"
#include "common/logging.h"
#include "core/functions.h"
#include "core/pipeline.h"

namespace pe::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const double parsed = std::atof(v);
  return parsed > 0.0 ? parsed : fallback;
}

inline bool full_mode() { return env_size("PE_BENCH_FULL", 0) == 1; }

/// Pilot set for one experiment.
struct Testbed {
  std::shared_ptr<net::Fabric> fabric;
  std::unique_ptr<res::PilotManager> manager;
  res::PilotPtr edge;
  res::PilotPtr cloud;
  res::PilotPtr broker;
};

/// Single-site testbed (paper §III-1: everything on the LRZ cloud; edge
/// devices are 1-core tasks "comparable to a current Raspberry Pi").
inline Testbed make_single_site_testbed(std::uint32_t edge_cores) {
  Testbed tb;
  tb.fabric = net::Fabric::make_single_site_topology();
  res::PilotManagerOptions options;
  options.startup_delay_factor = 0.0005;
  tb.manager = std::make_unique<res::PilotManager>(tb.fabric, options);
  // Edge devices simulated as cloud-hosted 1-core tasks => a VM pilot
  // holding `edge_cores` cores on the same site.
  tb.edge = tb.manager
                ->submit(res::Flavors::make("lrz-eu", res::Backend::kCloudVm,
                                            edge_cores, 4.0 * edge_cores))
                .value();
  tb.cloud = tb.manager->submit(res::Flavors::lrz_large()).value();
  tb.broker = tb.manager
                  ->submit(res::Flavors::make(
                      "lrz-eu", res::Backend::kBrokerService, 4, 16.0))
                  .value();
  if (!tb.manager->wait_all_active().ok()) std::abort();
  return tb;
}

/// Geo testbed (paper §III-2: source on Jetstream/US, broker + processing
/// on LRZ/EU, WAN at 140-160 ms RTT / 60-100 Mbit/s).
inline Testbed make_geo_testbed(std::uint32_t edge_cores) {
  Testbed tb;
  tb.fabric = net::Fabric::make_paper_topology();
  res::PilotManagerOptions options;
  options.startup_delay_factor = 0.0005;
  tb.manager = std::make_unique<res::PilotManager>(tb.fabric, options);
  tb.edge = tb.manager
                ->submit(res::Flavors::make("jetstream-us",
                                            res::Backend::kCloudVm,
                                            edge_cores, 4.0 * edge_cores))
                .value();
  tb.cloud = tb.manager->submit(res::Flavors::lrz_large()).value();
  tb.broker = tb.manager
                  ->submit(res::Flavors::make(
                      "lrz-eu", res::Backend::kBrokerService, 4, 16.0))
                  .value();
  if (!tb.manager->wait_all_active().ok()) std::abort();
  return tb;
}

/// One experiment run: wires the pipeline, runs it, returns the report.
inline core::PipelineRunReport run_pipeline(
    Testbed& tb, core::PipelineConfig config, ml::ModelKind model,
    const std::string& topic_suffix,
    core::ProcessFnFactory edge_fn = nullptr) {
  config.topic = "bench-" + topic_suffix;
  core::EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(tb.fabric)
      .set_pilot_edge(tb.edge)
      .set_pilot_cloud_processing(tb.cloud)
      .set_pilot_cloud_broker(tb.broker)
      .set_produce_function(
          core::functions::make_generator_produce({}, config.rows_per_message));
  if (edge_fn) pipeline.set_process_edge_function(std::move(edge_fn));
  if (model == ml::ModelKind::kBaseline) {
    pipeline.set_process_cloud_function(
        core::functions::make_passthrough_process());
  } else {
    pipeline.set_process_cloud_function(
        core::functions::make_model_process(model));
  }
  auto report = pipeline.run();
  if (!report.ok()) {
    std::fprintf(stderr, "bench run failed: %s\n",
                 report.status().to_string().c_str());
    std::abort();
  }
  return std::move(report).value();
}

/// Table formatting.
inline void print_row_header() {
  std::printf(
      "%-14s %6s %9s %5s %6s | %9s %9s | %9s %9s %9s | %9s %9s %9s %9s\n",
      "model", "points", "msg_KB", "part", "msgs", "msgs_per_s", "MB_per_s",
      "prod_m/s", "brok_m/s", "proc_m/s", "e2e_ms", "p50_ms", "p99_ms",
      "proc_ms");
  std::printf("%s\n", std::string(150, '-').c_str());
}

/// When PE_BENCH_CSV names a file, every row is also appended there as
/// CSV (header written when the file is empty/new) for plotting.
inline void append_csv_row(const std::string& model, std::size_t points,
                           std::uint32_t partitions,
                           const core::PipelineRunReport& report) {
  const char* path = std::getenv("PE_BENCH_CSV");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  if (std::ftell(f) == 0) {
    std::fprintf(f, "model,points,partitions,%s\n",
                 tel::RunReport::csv_header().c_str());
  }
  std::fprintf(f, "%s,%zu,%u,%s\n", model.c_str(), points, partitions,
               report.run.to_csv_row().c_str());
  std::fclose(f);
}

inline void print_row(const std::string& model, std::size_t points,
                      std::uint32_t partitions,
                      const core::PipelineRunReport& report) {
  append_csv_row(model, points, partitions, report);
  const double msg_kb =
      static_cast<double>(points) * 32.0 * 8.0 / 1000.0;
  std::printf(
      "%-14s %6zu %9.1f %5u %6zu | %9.2f %9.2f | %9.1f %9.1f %9.1f | %9.1f "
      "%9.1f %9.1f %9.1f\n",
      model.c_str(), points, msg_kb, partitions, report.run.messages,
      report.run.messages_per_second, report.run.mbytes_per_second,
      report.run.producer_msgs_per_second,
      report.run.broker_in_msgs_per_second,
      report.run.processing_msgs_per_second, report.run.end_to_end_ms.mean,
      report.run.end_to_end_ms.p50, report.run.end_to_end_ms.p99,
      report.run.processing_ms.mean);
  std::fflush(stdout);
}

}  // namespace pe::bench
