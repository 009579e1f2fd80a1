// Micro-benchmarks for the broker substrate (google-benchmark), plus the
// consumer-group fan-out sweep that tracks the zero-copy data plane.
//
// Not a paper figure by itself; quantifies the broker layer that FIG2
// stresses: append/fetch costs by record size and partition parallelism,
// consumer-group overhead, and codec costs. The fan-out sweep prints one
// machine-readable "BENCH {...}" json line per (groups x payload) case;
// PE_BENCH_FANOUT_ONLY=1 runs only the fan-out sweep, and
// PE_BENCH_CLUSTER_ONLY=1 runs only the replicated-cluster scaling sweep.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_endpoint.h"
#include "data/codec.h"
#include "data/generator.h"
#include "network/fabric.h"
#include "telemetry/json.h"

namespace {

using namespace pe;

broker::Record make_record(std::size_t bytes) {
  broker::Record r;
  r.key = "k";
  r.value = Bytes(bytes, 0x5a);
  return r;
}

void BM_PartitionLogAppend(benchmark::State& state) {
  broker::PartitionLog log(
      broker::RetentionPolicy{.max_records = 10000, .max_bytes = 0});
  const auto record = make_record(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    broker::Record copy = record;
    benchmark::DoNotOptimize(log.append(std::move(copy)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PartitionLogAppend)->Arg(800)->Arg(32'000)->Arg(2'560'000);

void BM_PartitionLogFetch(benchmark::State& state) {
  broker::PartitionLog log;
  for (int i = 0; i < 512; ++i) {
    (void)log.append(make_record(static_cast<std::size_t>(state.range(0))));
  }
  std::uint64_t offset = 0;
  for (auto _ : state) {
    broker::FetchSpec spec;
    spec.offset = offset;
    spec.max_records = 16;
    auto result = log.fetch(spec);
    benchmark::DoNotOptimize(result);
    offset = (offset + 16) % 512;
  }
}
BENCHMARK(BM_PartitionLogFetch)->Arg(800)->Arg(32'000);

void BM_ProducerSendLoopback(benchmark::State& state) {
  auto fabric = std::make_shared<net::Fabric>();
  (void)fabric->add_site({.id = "s"});
  auto broker_ptr = std::make_shared<broker::Broker>("s");
  (void)broker_ptr->create_topic(
      "t", broker::TopicConfig{
               .partitions = 1,
               .retention = {.max_records = 4096, .max_bytes = 0}});
  broker::Producer producer(broker_ptr, fabric, "s");
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(producer.send("t", 0, make_record(bytes)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProducerSendLoopback)->Arg(800)->Arg(32'000)->Arg(2'560'000);

void BM_ProduceConsumeRoundTrip(benchmark::State& state) {
  auto fabric = std::make_shared<net::Fabric>();
  (void)fabric->add_site({.id = "s"});
  auto broker_ptr = std::make_shared<broker::Broker>("s");
  const auto partitions = static_cast<std::uint32_t>(state.range(0));
  (void)broker_ptr->create_topic(
      "t", broker::TopicConfig{
               .partitions = partitions,
               .retention = {.max_records = 1024, .max_bytes = 0}});
  broker::Producer producer(broker_ptr, fabric, "s");
  broker::Consumer consumer(broker_ptr, fabric, "s", "g");
  std::vector<broker::TopicPartition> assignment;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    assignment.push_back({"t", p});
  }
  (void)consumer.assign(assignment);

  std::uint32_t next = 0;
  for (auto _ : state) {
    (void)producer.send("t", next % partitions, make_record(32'000));
    next += 1;
    auto records = consumer.poll(std::chrono::milliseconds(100));
    benchmark::DoNotOptimize(records);
  }
}
BENCHMARK(BM_ProduceConsumeRoundTrip)->Arg(1)->Arg(4);

void BM_CodecEncode(benchmark::State& state) {
  data::Generator gen;
  const auto block = gen.generate(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::Codec::encode(block));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(block.value_bytes()));
}
BENCHMARK(BM_CodecEncode)->Arg(25)->Arg(1000)->Arg(10000);

void BM_CodecDecode(benchmark::State& state) {
  data::Generator gen;
  const auto encoded =
      data::Codec::encode(gen.generate(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::Codec::decode(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_CodecDecode)->Arg(25)->Arg(1000)->Arg(10000);

void BM_GroupRebalance(benchmark::State& state) {
  broker::GroupCoordinator gc([](const std::string&) { return 64u; });
  const auto members = static_cast<int>(state.range(0));
  for (int m = 0; m < members; ++m) {
    (void)gc.join("g", "m" + std::to_string(m), {"t"});
  }
  int next = members;
  for (auto _ : state) {
    const std::string id = "m" + std::to_string(next++);
    benchmark::DoNotOptimize(gc.join("g", id, {"t"}));
    (void)gc.leave("g", id);
  }
}
BENCHMARK(BM_GroupRebalance)->Arg(4)->Arg(32);

// --- consumer-group fan-out sweep -----------------------------------------
//
// One producer pre-fills a single partition; N consumer groups then read
// the whole log `passes` times each, concurrently. This is the paper's
// fan-out shape (many downstream processors of one device stream) and is
// the case the zero-copy payload handover targets: every group reads the
// same retained bytes, so per-group deep copies dominate the old hot path.

void run_fanout_case(std::size_t groups, std::size_t payload_bytes) {
  // Isolate the broker data plane: the default loopback is a shared
  // 10 Gbit/s token bucket that serializes all groups' fetch transfers
  // and would cap every case near 1.25 GB/s aggregate regardless of how
  // the payload bytes are handed over. Same-site transfer is made
  // effectively free so the sweep measures copy-vs-share, not the
  // emulated NIC.
  net::LinkSpec loop;
  loop.from = loop.to = "<loopback>";
  loop.latency_min = loop.latency_max = Duration::zero();
  loop.bandwidth_min_bps = loop.bandwidth_max_bps = 1e15;
  auto fabric = std::make_shared<net::Fabric>(loop);
  if (!fabric->add_site({.id = "s"}).ok()) std::abort();
  auto broker_ptr = std::make_shared<broker::Broker>("s");
  if (!broker_ptr->create_topic("fan", broker::TopicConfig{.partitions = 1})
           .ok()) {
    std::abort();
  }

  // ~8 MiB of retained log, swept often enough that every group moves
  // ~96 MiB through the fetch path — and at least kMinSeconds of wall
  // time, so cases the zero-copy path makes very fast still measure a
  // stable rate instead of timer noise.
  const std::size_t records =
      std::max<std::size_t>(8, (8ull << 20) / payload_bytes);
  const std::size_t passes = std::max<std::size_t>(
      1, (96ull << 20) / (records * payload_bytes));
  constexpr double kMinSeconds = 0.25;

  broker::Producer producer(broker_ptr, fabric, "s");
  for (std::size_t i = 0; i < records; ++i) {
    if (!producer.send("fan", 0, make_record(payload_bytes)).ok()) {
      std::abort();
    }
  }

  std::atomic<std::uint64_t> sink{0};
  std::atomic<std::uint64_t> delivered{0};
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    threads.emplace_back([&, g] {
      broker::ConsumerConfig config;
      config.auto_commit = false;
      config.max_poll_records = 1024;
      config.fetch_max_bytes = 64ull << 20;
      broker::Consumer consumer(broker_ptr, fabric, "s",
                                "fan-g" + std::to_string(g), config);
      if (!consumer.assign({{"fan", 0}}).ok()) std::abort();
      std::uint64_t local = 0;
      std::uint64_t count = 0;
      for (std::size_t pass = 0;
           pass < passes || sw.elapsed_seconds() < kMinSeconds; ++pass) {
        if (!consumer.seek({"fan", 0}, 0).ok()) std::abort();
        std::size_t got = 0;
        while (got < records) {
          auto polled = consumer.poll(std::chrono::milliseconds(100));
          got += polled.size();
          for (const auto& r : polled) {
            const auto& value = r.record.value;
            local += value.empty() ? 0 : value[0];
          }
        }
        count += got;
      }
      sink.fetch_add(local, std::memory_order_relaxed);
      delivered.fetch_add(count, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = sw.elapsed_seconds();
  benchmark::DoNotOptimize(sink.load());

  const auto messages = static_cast<double>(delivered.load());
  const double payload_mb = messages *
                            static_cast<double>(payload_bytes) / 1e6;
  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("broker_fanout");
  w.key("groups").value(static_cast<std::uint64_t>(groups));
  w.key("payload_bytes").value(static_cast<std::uint64_t>(payload_bytes));
  w.key("records").value(static_cast<std::uint64_t>(records));
  w.key("passes").value(static_cast<std::uint64_t>(passes));
  w.key("messages").value(delivered.load());
  w.key("seconds").value(seconds);
  w.key("msgs_per_s").value(messages / seconds);
  w.key("mbytes_per_s").value(payload_mb / seconds);
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);
}

void run_fanout_sweep() {
  for (std::size_t payload : {1'024ull, 32'768ull, 1'048'576ull}) {
    for (std::size_t groups : {1u, 2u, 4u}) {
      run_fanout_case(groups, payload);
    }
  }
}

// --- replicated-cluster scaling sweep --------------------------------------
//
// Produce throughput at acks=quorum across broker-count x partition-count:
// how much parallelism the partition sharding buys back against the
// synchronous replication cost. Four producer threads spray a fixed
// message budget round-robin over the partitions; each case prints one
// "BENCH {...}" json line.

void run_cluster_case(std::uint32_t brokers, std::uint32_t partitions) {
  using namespace std::chrono_literals;
  cluster::ClusterOptions options;
  options.brokers = brokers;
  options.replication_factor = std::min<std::uint32_t>(3, brokers);
  options.heartbeat_interval = 1ms;
  auto bc = std::make_shared<cluster::BrokerCluster>(options);
  cluster::ClusterTopicConfig topic_config;
  topic_config.partitions = partitions;
  topic_config.retention.max_records = 4096;
  if (!bc->create_topic("scale", topic_config).ok()) std::abort();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kMessagesPerThread = 2000;
  constexpr std::size_t kPayloadBytes = 512;
  std::atomic<std::uint64_t> sent{0};
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      broker::Producer producer(
          std::make_shared<cluster::ClusterEndpoint>(
              bc, cluster::AckPolicy::kQuorum),
          nullptr, "bench");
      for (std::size_t i = 0; i < kMessagesPerThread; ++i) {
        const auto p =
            static_cast<std::uint32_t>((t * kMessagesPerThread + i) %
                                       partitions);
        if (producer.send("scale", p, make_record(kPayloadBytes)).ok()) {
          sent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = sw.elapsed_seconds();

  const auto messages = static_cast<double>(sent.load());
  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("cluster_scaling");
  w.key("brokers").value(static_cast<std::uint64_t>(brokers));
  w.key("partitions").value(static_cast<std::uint64_t>(partitions));
  w.key("replication_factor")
      .value(static_cast<std::uint64_t>(options.replication_factor));
  w.key("acks").value("quorum");
  w.key("payload_bytes").value(static_cast<std::uint64_t>(kPayloadBytes));
  w.key("messages").value(sent.load());
  w.key("seconds").value(seconds);
  w.key("msgs_per_s").value(messages / seconds);
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);
}

void run_cluster_sweep() {
  for (std::uint32_t brokers : {1u, 3u, 5u}) {
    for (std::uint32_t partitions : {1u, 4u, 16u}) {
      run_cluster_case(brokers, partitions);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* fanout_only = std::getenv("PE_BENCH_FANOUT_ONLY");
  const char* cluster_only = std::getenv("PE_BENCH_CLUSTER_ONLY");
  if (cluster_only != nullptr && cluster_only[0] == '1') {
    run_cluster_sweep();
    return 0;
  }
  if (fanout_only == nullptr || fanout_only[0] != '1') {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  run_fanout_sweep();
  if (fanout_only == nullptr || fanout_only[0] != '1') {
    run_cluster_sweep();
  }
  return 0;
}
