// Hierarchical continuum: more than two layers (paper §V future work:
// "generalize the abstraction to arbitrary architectures and topologies
// of resources — currently, it is limited to two layers").
//
// Topology: 4 edge devices -> fog gateway (pre-aggregation, 8x) ->
// regional cloud (outlier scoring with k-means) -> central cloud
// (auto-encoder re-scoring of suspicious traffic). Each layer runs on its
// own pilot at its own site; each hop pays its own link. The fog and
// regional layers are forwarding stages of an EdgeToCloudPipeline; the
// central cloud is its Listing-2 processing stage. The run report shows
// per-stage input/output counts and processing costs, plus the full
// chain's end-to-end latency.
//
// Build & run:  ./build/examples/hierarchical_continuum
#include <cstdio>

#include "pilot_edge.h"

int main() {
  using namespace pe;
  Logger::set_level(LogLevel::kWarn);

  // Four-site topology with progressively better links toward the core.
  auto fabric = std::make_shared<net::Fabric>();
  (void)fabric->add_site({.id = "devices", .kind = net::SiteKind::kEdge,
                          .region = "plant", .description = "sensor field"});
  (void)fabric->add_site({.id = "fog", .kind = net::SiteKind::kEdge,
                          .region = "plant", .description = "fog gateway"});
  (void)fabric->add_site({.id = "regional", .kind = net::SiteKind::kCloud,
                          .region = "eu-de", .description = "regional DC"});
  (void)fabric->add_site({.id = "core", .kind = net::SiteKind::kCloud,
                          .region = "eu-de", .description = "central cloud"});
  auto link = [&](const char* a, const char* b, double ms, double mbps) {
    net::LinkSpec spec;
    spec.from = a;
    spec.to = b;
    spec.latency_min = spec.latency_max =
        std::chrono::microseconds(static_cast<int>(ms * 1000));
    spec.bandwidth_min_bps = spec.bandwidth_max_bps = mbps * 1e6;
    (void)fabric->add_bidirectional_link(spec);
  };
  link("devices", "fog", 2, 100);       // local radio/ethernet
  link("fog", "regional", 10, 500);     // metro fiber
  link("regional", "core", 25, 1000);   // backbone
  link("devices", "regional", 12, 100);
  link("devices", "core", 40, 100);
  link("fog", "core", 30, 500);

  res::PilotManagerOptions options;
  options.startup_delay_factor = 0.001;
  res::PilotManager pm(fabric, options);
  auto devices = pm.submit(res::Flavors::raspi("devices", 4)).value();
  auto fog = pm.submit(res::Flavors::make("fog", res::Backend::kEdgeSsh, 4,
                                          8.0))
                 .value();
  auto regional = pm.submit(res::Flavors::make(
                                "regional", res::Backend::kCloudVm, 6, 24.0))
                      .value();
  auto core = pm.submit(res::Flavors::lrz_large("core")).value();
  auto broker = pm.submit(res::Flavors::make(
                              "fog", res::Backend::kBrokerService, 4, 16.0))
                    .value();
  if (auto s = pm.wait_all_active(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  core::PipelineConfig config;
  config.edge_devices = 4;
  config.messages_per_device = 6;
  config.rows_per_message = 2000;
  config.processing_tasks = 2;
  config.run_timeout = std::chrono::minutes(5);

  core::EdgeToCloudPipeline pipeline(config);
  pipeline.set_fabric(fabric)
      .set_pilot_cloud_broker(broker)
      .set_pilot_edge(devices)
      .set_produce_function(core::functions::make_generator_produce({}, 2000))
      .add_stage({.name = "fog-aggregate",
                  .pilot = fog,
                  .process = core::functions::make_aggregate_edge(8)})
      .add_stage({.name = "regional-kmeans",
                  .pilot = regional,
                  .process = core::functions::make_model_process(
                      ml::ModelKind::kKMeans)})
      // Central cloud: auto-encoder re-scoring on 2 tasks.
      .set_pilot_cloud_processing(core)
      .set_process_cloud_function(
          core::functions::make_model_process(ml::ModelKind::kAutoEncoder));

  std::printf("running 4-device -> fog -> regional -> core chain...\n\n");
  auto report = pipeline.run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().to_string().c_str());
  if (!report.value().status.ok()) {
    std::fprintf(stderr, "%s\n", report.value().status.to_string().c_str());
    return 1;
  }

  std::printf("link traffic (who paid for which hop):\n");
  for (const auto& [name, stats] : fabric->link_stats()) {
    if (stats.bytes == 0) continue;
    std::printf("  %-22s %8.2f MB over %llu transfers\n", name.c_str(),
                static_cast<double>(stats.bytes) / 1e6,
                static_cast<unsigned long long>(stats.transfers));
  }
  return 0;
}
