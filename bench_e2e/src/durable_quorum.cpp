// durable_quorum: a 3-broker BrokerCluster, durable under kEverySync, with
// RF 3, acks=quorum and 2 partitions.
//
// Two producer threads each send batches of 16 encoded 25-point blocks to
// their partition's leader; one consumer thread reads both partitions up
// to the high watermark and decodes every record. The hot window is
// capped, so a reader that lags takes the cold segment path. This is the
// only workload whose ack waits for fdatasync and follower replication.
//
// The logs live on tmpfs (/dev/shm, where the ring workload's shared memory
// lives too). Every ack still waits for the storage engine's group-committed
// fdatasync, its segment writes and the quorum; what it does not wait for
// is a shared disk, whose latency swings from run to run far more than any
// change to the program would move it.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "cluster/broker_cluster.h"
#include "data/codec.h"
#include "data/generator.h"
#include "harness.h"
#include "telemetry/metrics.h"
#include "trace.h"

namespace pe::bench_e2e {
namespace {

constexpr std::uint32_t kPartitions = 2;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kRows = 25;
constexpr std::size_t kPool = 256;
constexpr std::uint64_t kWindow = 1024;
constexpr const char* kTopic = "e2e-durable";

std::uint64_t value_sum(const data::DataBlock& b) {
  return checksum(b.values.data(), b.values.size() * sizeof(double));
}

class DurableQuorum final : public Workload {
 public:
  explicit DurableQuorum(std::uint64_t seed) {
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      data::GeneratorConfig config;
      config.seed = seed * 1000 + 100 + p;
      data::Generator gen(config);
      pool_.emplace_back();
      sums_.emplace_back();
      for (std::size_t i = 0; i < kPool; ++i) {
        pool_[p].push_back(gen.generate(kRows));
        sums_[p].push_back(value_sum(pool_[p].back()));
      }
    }
  }

  // Half the closed-loop throughput measured when the benchmark was defined
  // (25.1k rec/s).
  double open_loop_rate() const override { return 13000; }

  Status setup(const Phase&) override {
    cluster::ClusterOptions options;
    options.brokers = 3;
    options.replication_factor = 3;
    options.default_acks = cluster::AckPolicy::kQuorum;
    log_dir_ = "/dev/shm/pe_e2e_durable_" + std::to_string(::getpid()) +
               "_" + std::to_string(++phases_);
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
    if (!std::filesystem::create_directories(log_dir_, ec)) {
      return Status::Unavailable("cannot create " + log_dir_ + " on tmpfs");
    }
    options.durable_root = log_dir_;
    options.storage.flush_policy = storage::FlushPolicy::kEverySync;
    // Retention bounds the tmpfs the six logs hold (3 brokers x 2
    // partitions) to about 100 MB, well above the in-flight window.
    options.storage.segment_max_bytes = 2ull << 20;
    // No failover is under test: a loaded host must not expire a session.
    options.session_timeout = std::chrono::seconds(5);
    cluster_ = std::make_unique<cluster::BrokerCluster>(options);

    cluster::ClusterTopicConfig topic;
    topic.partitions = kPartitions;
    topic.retention.max_bytes = 12ull << 20;
    topic.retention.hot_max_bytes = 1ull << 20;
    if (auto s = cluster_->create_topic(kTopic, topic); !s.ok()) return s;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!cluster_->all_partitions_led()) {
      if (Clock::now() >= deadline) return Status::Timeout("no leaders");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      auto leader = cluster_->leader(kTopic, p);
      if (!leader.ok()) return leader.status();
      leaders_[p] = leader.value();
    }
    return Status::Ok();
  }

  Status run(const Phase& phase, PhaseResult& out) override {
    auto& registry = tel::MetricsRegistry::global();
    const std::uint64_t fsyncs_before =
        registry.counter("storage.fsyncs").value();
    const std::size_t fsync_samples_before =
        registry.histogram("storage.fsync_us").count();

    const Schedule schedule = Schedule::start(phase, 1.0 / kPartitions, kBatch);
    std::atomic<std::uint64_t> sent[kPartitions] = {};
    std::atomic<std::uint32_t> producers_done{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> batches{0};
    Sampler lag[kPartitions];
    std::atomic<std::uint64_t> delivered[kPartitions] = {};

    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      producers.emplace_back([&, p] {
        produce_loop(p, schedule, lag[p], sent[p], delivered[p], failed,
                     batches);
        producers_done.fetch_add(1);
      });
    }

    DeliveryChecker checker(sums_);
    out.latency_ms.set_stride(latency_stride(phase));
    Sampler hw_lag;
    std::uint64_t pos[kPartitions] = {};
    std::uint64_t fetches = 0, empty_fetches = 0, fetched = 0;
    std::uint64_t last_receipt = 0;
    const auto give_up =
        Clock::now() + phase.duration + std::chrono::seconds(60);
    while (true) {
      bool progress = false;
      for (std::uint32_t p = 0; p < kPartitions; ++p) {
        const auto hw = traced("cluster.high_watermark", pos[p], [&] {
          return cluster_->high_watermark(kTopic, p);
        });
        if (!hw.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (hw.value() <= pos[p]) continue;
        hw_lag.add(static_cast<double>(hw.value() - pos[p]));
        broker::FetchSpec spec;
        spec.offset = pos[p];
        spec.max_records = 512;
        const auto records = traced("cluster.fetch", pos[p], [&] {
          return cluster_->fetch(leaders_[p], kTopic, p, spec);
        });
        fetches += 1;
        if (!records.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (records.value().empty()) empty_fetches += 1;
        for (const auto& r : records.value()) {
          const auto block = traced("data.decode", r.offset, [&] {
            return data::Codec::decode(r.record.value);
          });
          if (!block.ok()) {
            failed.fetch_add(1);
            continue;
          }
          const std::uint64_t now = Clock::now_ns();
          checker.deliver(p, r.offset, block.value().message_id,
                          value_sum(block.value()));
          out.latency_ms.add(
              static_cast<double>(now - block.value().produced_ns) / 1e6);
          last_receipt = now;
          pos[p] = r.offset + 1;
          delivered[p].store(pos[p], std::memory_order_release);
          fetched += 1;
          progress = true;
        }
      }
      if (progress) continue;
      if (producers_done.load() == kPartitions) {
        bool drained = true;
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          drained = drained && pos[p] >= sent[p].load();
        }
        if (drained) break;
      }
      if (Clock::now() > give_up) {
        failed.fetch_add(1);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (auto& t : producers) t.join();

    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      out.attempted += sent[p].load();
      checker.finish(p, sent[p].load());
      out.generator_lag_ms.merge(lag[p]);
    }
    out.failed_ops += failed.load();
    out.delivered = checker.delivered();
    out.check_misses = checker.misses();
    if (out.check_misses != 0) {
      std::fprintf(stderr, "durable_quorum check: %s\n",
                   checker.describe().c_str());
    }
    out.window_s = window_s(schedule, last_receipt);

    if (phase.trace && phase.loop == Loop::kClosed) {
      const auto produce_us = Tracer::durations_us("cluster.produce");
      out.layer["data.encode_us_p50"] =
          percentile_or_nan(Tracer::durations_us("data.encode"), 0.5);
      out.layer["data.decode_us_p50"] =
          percentile_or_nan(Tracer::durations_us("data.decode"), 0.5);
      out.layer["cluster.produce_ms_p50"] =
          percentile_or_nan(produce_us, 0.5) / 1e3;
      out.layer["cluster.produce_ms_p99"] =
          percentile_or_nan(produce_us, 0.99) / 1e3;
      const std::uint64_t fsyncs =
          registry.counter("storage.fsyncs").value() - fsyncs_before;
      out.layer["storage.fsyncs_per_batch"] = ratio(
          static_cast<double>(fsyncs), static_cast<double>(batches.load()));
      const std::vector<double> fsync_us =
          registry.histogram("storage.fsync_us").samples();
      out.layer["storage.fsync_us_p50"] = percentile_or_nan(
          std::vector<double>(fsync_us.begin() + static_cast<std::ptrdiff_t>(
                                                     fsync_samples_before),
                              fsync_us.end()),
          0.5);
      out.layer["cluster.fetch_us_p50"] =
          percentile_or_nan(Tracer::durations_us("cluster.fetch"), 0.5);
      out.layer["cluster.records_per_fetch"] =
          ratio(static_cast<double>(fetched), static_cast<double>(fetches));
      out.layer["cluster.empty_fetch_frac"] =
          ratio(static_cast<double>(empty_fetches),
                static_cast<double>(fetches));
      out.layer["cluster.hw_lag_records_p99"] =
          percentile_or_nan(hw_lag.values(), 0.99);
    }
    return Status::Ok();
  }

  void teardown(PhaseResult&) override {
    cluster_.reset();
    if (!log_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(log_dir_, ec);
      log_dir_.clear();
    }
  }

 private:
  void produce_loop(std::uint32_t p, const Schedule& schedule, Sampler& lag,
                    std::atomic<std::uint64_t>& sent,
                    const std::atomic<std::uint64_t>& delivered,
                    std::atomic<std::uint64_t>& failed,
                    std::atomic<std::uint64_t>& batches) {
    data::DataBlock scratch;
    std::string key(1, 'p');
    key += std::to_string(p);
    std::uint64_t seq = 0;
    for (std::uint64_t k = 0;; ++k) {
      if (!wait_for_window(schedule, seq, delivered, kWindow)) break;
      const std::uint64_t due = schedule.next(k, lag);
      if (due == 0) break;
      ScopedSpan batch_span("bench.batch", seq);
      std::vector<broker::Record> records(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        scratch = pool_[p][(seq + i) % kPool];
        scratch.message_id = seq + i;
        scratch.produced_ns = due;
        records[i].key = key;
        ScopedSpan span("data.encode", seq + i);
        records[i].value = data::Codec::encode_shared(scratch);
      }
      // A transient refusal is retried with the same records; anything
      // else ends this producer (its sequence would no longer be dense).
      Status status = Status::Ok();
      for (int attempt = 0; attempt < 5; ++attempt) {
        status = traced("cluster.produce", seq, [&] {
                   return cluster_->produce(leaders_[p], kTopic, p, records,
                                            cluster::AckPolicy::kQuorum);
                 }).status();
        if (status.ok() || !status.is_transient()) break;
        failed.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!status.ok()) {
        failed.fetch_add(1);
        std::fprintf(stderr, "durable_quorum produce: %s\n",
                     status.to_string().c_str());
        break;
      }
      seq += kBatch;
      sent.store(seq);
      batches.fetch_add(1);
    }
  }

  std::vector<std::vector<data::DataBlock>> pool_;
  std::vector<std::vector<std::uint64_t>> sums_;
  std::uint64_t phases_ = 0;
  std::string log_dir_;
  std::unique_ptr<cluster::BrokerCluster> cluster_;
  cluster::BrokerId leaders_[kPartitions] = {};
};

}  // namespace

std::unique_ptr<Workload> make_durable_quorum(std::uint64_t seed) {
  return std::make_unique<DurableQuorum>(seed);
}

}  // namespace pe::bench_e2e
