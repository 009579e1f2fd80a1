// ABL1 — placement ablation: cloud-centric vs hybrid deployments over the
// WAN, plus the cost-model recommendation (paper §II-D / §III-2: "Both
// scenarios would benefit from a hybrid edge-to-cloud deployment, e.g.,
// by adding a data compression step before the data transfer").
//
// Runs k-means over the geo topology with (a) raw cloud-centric shipping,
// (b) hybrid with 4x edge aggregation, (c) hybrid with 16x aggregation,
// and prints the placement advisor's estimate next to the measured rows.
#include "bench_util.h"

int main() {
  using namespace pe;
  Logger::set_level(LogLevel::kError);

  const double time_scale = bench::env_double("PE_TIME_SCALE", 1.0);
  Clock::set_time_scale(time_scale);

  constexpr std::uint32_t kPartitions = 4;
  constexpr std::size_t kPoints = 10000;
  const std::size_t messages = bench::env_size("PE_BENCH_MESSAGES", 16);

  std::printf(
      "ABL1: placement ablation, k-means over the WAN at %zu-point "
      "messages (time scale %.0fx)\n\n",
      kPoints, time_scale);

  struct Variant {
    const char* name;
    std::size_t aggregate_window;  // 0 = cloud-centric
  };
  const std::vector<Variant> variants = {
      {"cloud-centric", 0},
      {"hybrid-agg4", 4},
      {"hybrid-agg16", 16},
  };

  bench::print_row_header();
  int run_id = 0;
  for (const auto& variant : variants) {
    auto tb = bench::make_geo_testbed(kPartitions);
    core::PipelineConfig config;
    config.edge_devices = kPartitions;
    config.partitions = kPartitions;
    config.messages_per_device =
        std::max<std::size_t>(1, messages / kPartitions);
    config.rows_per_message = kPoints;
    config.run_timeout = std::chrono::minutes(30);
    core::ProcessFnFactory edge_fn;
    if (variant.aggregate_window > 0) {
      config.mode = core::DeploymentMode::kHybrid;
      edge_fn =
          core::functions::make_aggregate_edge(variant.aggregate_window);
    }
    auto report = bench::run_pipeline(tb, config, ml::ModelKind::kKMeans,
                                      "abl1-" + std::to_string(run_id++),
                                      edge_fn);
    bench::print_row(variant.name, kPoints, kPartitions, report);
    const auto links = tb.fabric->link_stats();
    const auto it = links.find("jetstream-us->lrz-eu");
    if (it != links.end()) {
      std::printf("    [wan] %s shipped %.1f MB\n", variant.name,
                  static_cast<double>(it->second.bytes) / 1e6);
    }
  }

  // What the cost model would have recommended for this workload.
  core::PlacementFactors factors;
  factors.edge_site = "jetstream-us";
  factors.cloud_site = "lrz-eu";
  factors.message_bytes = kPoints * 32 * 8;
  factors.cloud_compute_ms = 40.0;  // measured k-means cost at 10k points
  factors.reduction_ratio = 0.25;
  factors.reduction_ms = 5.0;
  auto fabric = net::Fabric::make_paper_topology();
  auto rec = core::recommend_placement(*fabric, factors);
  if (rec.ok()) {
    std::printf("\n%s", rec.value().to_string().c_str());
  }
  Clock::set_time_scale(1.0);
  return 0;
}
