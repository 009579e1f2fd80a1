// pipeline_7k: the paper's Fig. 2 path through the Listing-2 facade.
//
// EdgeToCloudPipeline on one site: 2 edge devices -> 2 partitions of an
// in-memory broker -> 2 processing tasks. Messages are 25-point blocks
// (6.4 KB of values); the cloud function checksums each block. The fabric
// is a zero-latency loopback with effectively unlimited bandwidth, so the
// per-message middleware sets the rate: codec, client, partition log,
// span stamps, dedup and the task loop.
//
// The produce function hands out pre-generated blocks. The first two
// values of each block carry (device << 48 | sequence) and the record's
// due time, so the cloud function can check the block and time it.
#include <bit>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/pipeline.h"
#include "data/generator.h"
#include "harness.h"
#include "resource/pilot_description.h"

namespace pe::bench_e2e {
namespace {

constexpr std::size_t kDevices = 2;
constexpr std::size_t kRows = 25;
constexpr std::size_t kPool = 256;
constexpr std::uint64_t kWindow = 2048;
constexpr const char* kSite = "lrz-eu";
constexpr const char* kTopic = "e2e-7k";

std::uint64_t value_sum(const data::DataBlock& b) {
  return checksum(b.values.data() + 2, (b.values.size() - 2) * sizeof(double));
}

struct DeviceState {
  std::uint64_t next_seq = 0;
  bool waited = false;
  Sampler lag_ms;
};

// Shared by the benchmark, the produce functions and the cloud function.
struct RunState {
  explicit RunState(std::vector<std::vector<std::uint64_t>> sums)
      : checker(std::move(sums)) {}

  std::mutex gate_mutex;
  std::condition_variable gate;
  std::size_t ready = 0;
  bool go = false;
  bool cancel = false;

  Schedule schedule;
  DeviceState devices[kDevices];
  std::atomic<std::uint64_t> delivered[kDevices] = {};

  std::mutex sink_mutex;
  DeliveryChecker checker;
  Sampler latency_ms;
  std::uint64_t last_receipt_ns = 0;
};

class Pipeline7k final : public Workload {
 public:
  explicit Pipeline7k(std::uint64_t seed) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      data::GeneratorConfig config;
      config.seed = seed * 1000 + d;
      data::Generator gen(config);
      pool_.emplace_back();
      sums_.emplace_back();
      for (std::size_t i = 0; i < kPool; ++i) {
        pool_[d].push_back(gen.generate(kRows));
        sums_[d].push_back(value_sum(pool_[d].back()));
      }
    }
  }

  // Half the closed-loop throughput measured when the benchmark was defined
  // (172k rec/s).
  double open_loop_rate() const override { return 90000; }

  Status setup(const Phase& phase) override {
    (void)phase;
    state_ = std::make_shared<RunState>(sums_);

    net::LinkSpec loop;
    loop.from = loop.to = "<loopback>";
    loop.latency_min = loop.latency_max = Duration::zero();
    loop.bandwidth_min_bps = loop.bandwidth_max_bps = 1e15;
    fabric_ = std::make_shared<net::Fabric>(loop);
    net::Site site;
    site.id = kSite;
    if (auto s = fabric_->add_site(site); !s.ok()) return s;
    res::PilotManagerOptions pm;
    pm.startup_delay_factor = 0.0002;
    manager_ = std::make_unique<res::PilotManager>(fabric_, pm);
    auto edge = manager_->submit(
        res::Flavors::make(kSite, res::Backend::kCloudVm, kDevices, 8.0));
    auto cloud = manager_->submit(
        res::Flavors::make(kSite, res::Backend::kCloudVm, kDevices, 8.0));
    auto broker = manager_->submit(
        res::Flavors::make(kSite, res::Backend::kBrokerService, 1, 4.0));
    if (!edge.ok()) return edge.status();
    if (!cloud.ok()) return cloud.status();
    if (!broker.ok()) return broker.status();
    broker_pilot_ = broker.value();
    if (auto s = manager_->wait_all_active(); !s.ok()) return s;
    // The in-memory log keeps what retention allows; the pipeline creates
    // its topic without any, so create it first, bounded well above the
    // in-flight window.
    broker::TopicConfig topic;
    topic.partitions = kDevices;
    topic.retention.max_bytes = 24ull << 20;
    if (auto s = broker_pilot_->broker()->create_topic(kTopic, topic);
        !s.ok()) {
      return s;
    }

    core::PipelineConfig config;
    config.topic = kTopic;
    config.edge_devices = kDevices;
    config.partitions = kDevices;
    config.processing_tasks = kDevices;
    config.messages_per_device = std::uint64_t{1} << 40;
    config.rows_per_message = kRows;
    config.enable_parameter_server = false;
    config.run_timeout = std::chrono::seconds(60);
    pipeline_ = std::make_unique<core::EdgeToCloudPipeline>(config);
    pipeline_->set_fabric(fabric_)
        .set_pilot_edge(edge.value())
        .set_pilot_cloud_processing(cloud.value())
        .set_pilot_cloud_broker(broker.value())
        .set_produce_function(produce_factory())
        .set_process_cloud_function(process_factory());
    if (auto s = pipeline_->start(); !s.ok()) return s;

    // Ready once every device's produce function has been entered: the
    // next block it returns is admitted.
    std::unique_lock<std::mutex> lock(state_->gate_mutex);
    if (!state_->gate.wait_for(lock, std::chrono::seconds(20), [&] {
          return state_->ready == kDevices;
        })) {
      return Status::Timeout("pipeline producers did not start");
    }
    return Status::Ok();
  }

  Status run(const Phase& phase, PhaseResult& out) override {
    RunState& st = *state_;
    {
      std::lock_guard<std::mutex> lock(st.gate_mutex);
      st.schedule = Schedule::start(phase, 1.0 / kDevices, 1);
      st.latency_ms.set_stride(latency_stride(phase));
      st.go = true;
    }
    st.gate.notify_all();
    if (auto s = pipeline_->wait(); !s.ok()) return s;
    const core::PipelineRunReport report = pipeline_->report();

    std::lock_guard<std::mutex> lock(st.sink_mutex);
    for (std::size_t d = 0; d < kDevices; ++d) {
      const std::uint64_t sent = st.devices[d].next_seq;
      out.attempted += sent;
      st.checker.finish(d, sent);
      // Offsets are dense when each partition's log ends at its count.
      auto end = broker_pilot_->broker()->end_offset(
          kTopic, static_cast<std::uint32_t>(d));
      if (!end.ok() || end.value() != sent) out.failed_ops += 1;
      out.generator_lag_ms.merge(st.devices[d].lag_ms);
    }
    out.failed_ops += report.processing_errors;
    out.delivered = st.checker.delivered();
    out.check_misses = st.checker.misses();
    if (out.check_misses != 0) {
      std::fprintf(stderr, "pipeline_7k check: %s\n",
                   st.checker.describe().c_str());
    }
    out.window_s = window_s(st.schedule, st.last_receipt_ns);
    out.latency_ms.merge(st.latency_ms);

    if (phase.trace && phase.loop == Loop::kClosed) {
      const auto& b = report.broker;
      out.layer["broker.records_per_fetch"] =
          ratio(static_cast<double>(b.records_out),
                static_cast<double>(b.fetch_requests));
      out.layer["pipeline.duplicates_skipped"] =
          static_cast<double>(report.duplicates_skipped);
    }
    if (phase.trace && phase.loop == Loop::kOpen) {
      // Stage stamps of the pipeline's own MessageSpans. The consumer
      // queue stage is not in the report's distributions, but stage means
      // add up: queue = end-to-end - ingress - residency - processing.
      const tel::RunReport& r = report.run;
      out.layer["pipeline.ingress_us_p50"] = r.ingress_ms.p50 * 1e3;
      out.layer["pipeline.ingress_us_p99"] = r.ingress_ms.p99 * 1e3;
      out.layer["pipeline.residency_us_p50"] = r.broker_residency_ms.p50 * 1e3;
      out.layer["pipeline.residency_us_p99"] = r.broker_residency_ms.p99 * 1e3;
      out.layer["pipeline.consumer_queue_us_mean"] =
          (r.end_to_end_ms.mean - r.ingress_ms.mean -
           r.broker_residency_ms.mean - r.processing_ms.mean) *
          1e3;
      out.layer["pipeline.process_us_p50"] = r.processing_ms.p50 * 1e3;
    }
    return Status::Ok();
  }

  void teardown(PhaseResult&) override {
    if (state_) {
      {
        std::lock_guard<std::mutex> lock(state_->gate_mutex);
        state_->cancel = true;
        state_->go = true;
      }
      state_->gate.notify_all();
    }
    if (pipeline_) pipeline_->stop();
    pipeline_.reset();
    if (manager_) manager_->shutdown();
    manager_.reset();
    broker_pilot_.reset();
    fabric_.reset();
    state_.reset();
  }

 private:
  core::ProduceFnFactory produce_factory() {
    std::shared_ptr<RunState> st = state_;
    const auto* pool = &pool_;
    return [st, pool](std::size_t d) -> core::ProduceFn {
      return [st, pool, d](core::FunctionContext&) -> Result<data::DataBlock> {
        DeviceState& dev = st->devices[d];
        if (!dev.waited) {
          dev.waited = true;
          std::unique_lock<std::mutex> lock(st->gate_mutex);
          st->ready += 1;
          st->gate.notify_all();
          st->gate.wait(lock, [&] { return st->go; });
        }
        if (st->cancel) return Status::Cancelled("phase over");
        const std::uint64_t seq = dev.next_seq;
        if (!wait_for_window(st->schedule, seq, st->delivered[d], kWindow)) {
          return Status::Cancelled("phase over");
        }
        const std::uint64_t due_ns = st->schedule.next(seq, dev.lag_ms);
        if (due_ns == 0) return Status::Cancelled("phase over");
        data::DataBlock block = (*pool)[d][seq % kPool];
        block.values[0] = std::bit_cast<double>((std::uint64_t{d} << 48) | seq);
        block.values[1] = std::bit_cast<double>(due_ns);
        dev.next_seq += 1;
        return block;
      };
    };
  }

  core::ProcessFnFactory process_factory() {
    std::shared_ptr<RunState> st = state_;
    return core::shared_process_fn(
        [st](core::FunctionContext&,
             data::DataBlock block) -> Result<core::ProcessResult> {
          const auto word = std::bit_cast<std::uint64_t>(block.values[0]);
          const auto due_ns = std::bit_cast<std::uint64_t>(block.values[1]);
          const std::uint64_t seq = word & ((std::uint64_t{1} << 48) - 1);
          const std::size_t device = static_cast<std::size_t>(word >> 48);
          const std::uint64_t sum = value_sum(block);
          const std::uint64_t now = Clock::now_ns();
          {
            std::lock_guard<std::mutex> lock(st->sink_mutex);
            st->checker.deliver(device, seq, seq, sum);
            st->latency_ms.add(static_cast<double>(now - due_ns) / 1e6);
            st->last_receipt_ns = std::max(st->last_receipt_ns, now);
          }
          if (device < kDevices) st->delivered[device].fetch_add(1);
          core::ProcessResult result;
          result.block = std::move(block);
          return result;
        });
  }

  std::vector<std::vector<data::DataBlock>> pool_;
  std::vector<std::vector<std::uint64_t>> sums_;
  std::shared_ptr<RunState> state_;
  std::shared_ptr<net::Fabric> fabric_;
  std::unique_ptr<res::PilotManager> manager_;
  res::PilotPtr broker_pilot_;
  std::unique_ptr<core::EdgeToCloudPipeline> pipeline_;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline_7k(std::uint64_t seed) {
  return std::make_unique<Pipeline7k>(seed);
}

}  // namespace pe::bench_e2e
