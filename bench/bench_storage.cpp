// Storage-engine benchmarks: what durability costs, and what recovery
// costs.
//
// Two machine-readable sweeps, one "BENCH {...}" json line per case:
//   storage_append   — append throughput, in-memory PartitionLog vs a
//                      durable LogDir under each fsync policy. The gap
//                      between kNever and kEverySync is the price of the
//                      ack==durable contract; kEveryNRecords sits between.
//   storage_recovery — LogDir::open() time vs log size (clean close, so
//                      the scan cost is pure CRC verification + index
//                      rebuild, no torn-tail handling).
//   storage_group_commit — concurrent appenders under each fsync policy.
//                      The kEverySync rows show group commit amortizing
//                      one fsync across every appender that piled up
//                      behind the leader.
//   storage_batch_append — append_batch() throughput vs batch size under
//                      kEverySync: one write + at most one fsync per
//                      batch, however many records it carries.
//
// google-benchmark micro benches cover the single-record hot paths;
// PE_BENCH_SWEEP_ONLY=1 skips them. PE_BENCH_GROUP_COMMIT_ONLY=1 runs
// just the group-commit + batch sweeps (the CI smoke uses this).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "broker/partition_log.h"
#include "common/clock.h"
#include "storage/log_dir.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace {

using namespace pe;
namespace fs = std::filesystem;

broker::Record make_record(std::size_t bytes) {
  broker::Record r;
  r.key = "k";
  r.value = Bytes(bytes, 0x5a);
  return r;
}

/// Fresh scratch directory under the system temp dir; callers remove it.
std::string scratch_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = fs::temp_directory_path() /
                   ("pe_bench_storage_" + tag + "_" +
                    std::to_string(++counter));
  fs::remove_all(dir);
  return dir.string();
}

// --- google-benchmark micro benches ---

void BM_LogDirAppend(benchmark::State& state) {
  const auto dir = scratch_dir("append");
  storage::StorageConfig config;
  config.flush_policy = static_cast<storage::FlushPolicy>(state.range(1));
  auto log = storage::LogDir::open(dir, config);
  if (!log.ok()) std::abort();
  const auto record = make_record(static_cast<std::size_t>(state.range(0)));
  std::uint64_t ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.value()->append(record, ++ts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  log.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_LogDirAppend)
    ->ArgsProduct({{800, 32'000},
                   {static_cast<long>(storage::FlushPolicy::kNever),
                    static_cast<long>(storage::FlushPolicy::kEveryNRecords),
                    static_cast<long>(storage::FlushPolicy::kEverySync)}});

void BM_LogDirFetchCold(benchmark::State& state) {
  const auto dir = scratch_dir("fetch");
  auto log = storage::LogDir::open(dir, {});
  if (!log.ok()) std::abort();
  const std::size_t value_bytes = static_cast<std::size_t>(state.range(0));
  for (int i = 0; i < 512; ++i) {
    if (!log.value()->append(make_record(value_bytes), 1 + i).ok()) {
      std::abort();
    }
  }
  std::uint64_t offset = 0;
  for (auto _ : state) {
    auto result = log.value()->fetch(offset, 16, ~0ull);
    benchmark::DoNotOptimize(result);
    offset = (offset + 16) % 512;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          static_cast<std::int64_t>(value_bytes));
  log.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_LogDirFetchCold)->Arg(800)->Arg(32'000);

// --- BENCH sweeps ---

void emit_append_case(const char* mode, storage::FlushPolicy policy,
                      std::size_t payload_bytes, std::uint64_t records,
                      double seconds) {
  const double mb =
      static_cast<double>(records * payload_bytes) / 1e6;
  tel::JsonWriter w;
  w.begin_object();
  w.key("bench").value("storage_append");
  w.key("mode").value(mode);
  w.key("flush_policy").value(storage::to_string(policy));
  w.key("payload_bytes").value(static_cast<std::uint64_t>(payload_bytes));
  w.key("records").value(records);
  w.key("seconds").value(seconds);
  w.key("records_per_s").value(static_cast<double>(records) / seconds);
  w.key("mbytes_per_s").value(mb / seconds);
  w.end_object();
  std::printf("BENCH %s\n", w.str().c_str());
  std::fflush(stdout);
}

void run_append_sweep() {
  constexpr std::size_t kPayload = 1024;
  // Few enough records that kEverySync (one fsync per append) finishes
  // quickly; plenty for the memory/kNever cases to measure stably.
  constexpr std::uint64_t kRecords = 2000;

  {
    broker::PartitionLog log;
    Stopwatch sw;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      (void)log.append(make_record(kPayload));
    }
    emit_append_case("memory", storage::FlushPolicy::kNever, kPayload,
                     kRecords, sw.elapsed_seconds());
  }

  for (auto policy :
       {storage::FlushPolicy::kNever, storage::FlushPolicy::kEveryNRecords,
        storage::FlushPolicy::kEverySync}) {
    const auto dir = scratch_dir("sweep");
    storage::StorageConfig config;
    config.flush_policy = policy;
    auto log = storage::LogDir::open(dir, config);
    if (!log.ok()) std::abort();
    Stopwatch sw;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      if (!log.value()->append(make_record(kPayload), 1 + i).ok()) {
        std::abort();
      }
    }
    const double seconds = sw.elapsed_seconds();
    emit_append_case("durable", policy, kPayload, kRecords, seconds);
    log.value().reset();
    fs::remove_all(dir);
  }
}

void run_recovery_sweep() {
  for (std::uint64_t records : {1'000ull, 10'000ull, 50'000ull}) {
    const auto dir = scratch_dir("recovery");
    constexpr std::size_t kPayload = 1024;
    storage::StorageConfig config;
    config.segment_max_bytes = 8ull << 20;
    {
      auto log = storage::LogDir::open(dir, config);
      if (!log.ok()) std::abort();
      for (std::uint64_t i = 0; i < records; ++i) {
        if (!log.value()->append(make_record(kPayload), 1 + i).ok()) {
          std::abort();
        }
      }
    }  // clean close

    storage::RecoveryReport report;
    Stopwatch sw;
    auto log = storage::LogDir::open(dir, config, &report);
    const double seconds = sw.elapsed_seconds();
    if (!log.ok()) std::abort();

    tel::JsonWriter w;
    w.begin_object();
    w.key("bench").value("storage_recovery");
    w.key("records").value(records);
    w.key("payload_bytes").value(static_cast<std::uint64_t>(kPayload));
    w.key("log_mbytes")
        .value(static_cast<double>(report.bytes_recovered) / 1e6);
    w.key("segments").value(
        static_cast<std::uint64_t>(report.segments_scanned));
    w.key("recovery_seconds").value(seconds);
    w.key("mbytes_per_s")
        .value(static_cast<double>(report.bytes_recovered) / 1e6 / seconds);
    w.end_object();
    std::printf("BENCH %s\n", w.str().c_str());
    std::fflush(stdout);
    log.value().reset();
    fs::remove_all(dir);
  }
}

void run_group_commit_sweep() {
  constexpr std::size_t kPayload = 1024;
  auto& fsyncs = tel::MetricsRegistry::global().counter("storage.fsyncs");
  for (auto policy :
       {storage::FlushPolicy::kNever, storage::FlushPolicy::kEverySync}) {
    for (int threads : {1, 2, 4, 8, 16}) {
      // Enough per-thread work for stable numbers, few enough that the
      // single-threaded every-sync row (the slow one) stays quick.
      const std::uint64_t per_thread =
          policy == storage::FlushPolicy::kEverySync ? 500 : 4000;
      const auto dir = scratch_dir("group_commit");
      storage::StorageConfig config;
      config.flush_policy = policy;
      auto log = storage::LogDir::open(dir, config);
      if (!log.ok()) std::abort();
      const std::uint64_t fsyncs_before = fsyncs.value();
      Stopwatch sw;
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&log, per_thread] {
          for (std::uint64_t i = 0; i < per_thread; ++i) {
            if (!log.value()->append(make_record(kPayload), 1 + i).ok()) {
              std::abort();
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      const double seconds = sw.elapsed_seconds();
      const std::uint64_t records =
          static_cast<std::uint64_t>(threads) * per_thread;

      tel::JsonWriter w;
      w.begin_object();
      w.key("bench").value("storage_group_commit");
      w.key("flush_policy").value(storage::to_string(policy));
      w.key("threads").value(static_cast<std::uint64_t>(threads));
      w.key("payload_bytes").value(static_cast<std::uint64_t>(kPayload));
      w.key("records").value(records);
      w.key("seconds").value(seconds);
      w.key("records_per_s").value(static_cast<double>(records) / seconds);
      w.key("fsyncs").value(fsyncs.value() - fsyncs_before);
      w.end_object();
      std::printf("BENCH %s\n", w.str().c_str());
      std::fflush(stdout);
      log.value().reset();
      fs::remove_all(dir);
    }
  }
}

void run_batch_append_sweep() {
  constexpr std::size_t kPayload = 1024;
  constexpr std::uint64_t kRecords = 2048;
  auto& fsyncs = tel::MetricsRegistry::global().counter("storage.fsyncs");
  for (std::uint64_t batch_records : {1ull, 16ull, 128ull, 1024ull}) {
    const auto dir = scratch_dir("batch_append");
    storage::StorageConfig config;
    config.flush_policy = storage::FlushPolicy::kEverySync;
    auto log = storage::LogDir::open(dir, config);
    if (!log.ok()) std::abort();
    std::vector<broker::Record> records;
    for (std::uint64_t i = 0; i < batch_records; ++i) {
      records.push_back(make_record(kPayload));
    }
    std::vector<storage::TimestampedRecord> batch;
    for (const auto& r : records) batch.push_back({&r, 1});
    const std::uint64_t batches = kRecords / batch_records;
    const std::uint64_t fsyncs_before = fsyncs.value();
    Stopwatch sw;
    for (std::uint64_t i = 0; i < batches; ++i) {
      if (!log.value()->append_batch(batch).ok()) std::abort();
    }
    const double seconds = sw.elapsed_seconds();
    const std::uint64_t total = batches * batch_records;

    tel::JsonWriter w;
    w.begin_object();
    w.key("bench").value("storage_batch_append");
    w.key("batch_records").value(batch_records);
    w.key("payload_bytes").value(static_cast<std::uint64_t>(kPayload));
    w.key("records").value(total);
    w.key("seconds").value(seconds);
    w.key("records_per_s").value(static_cast<double>(total) / seconds);
    w.key("fsyncs").value(fsyncs.value() - fsyncs_before);
    w.key("fsyncs_per_batch")
        .value(static_cast<double>(fsyncs.value() - fsyncs_before) /
               static_cast<double>(batches));
    w.end_object();
    std::printf("BENCH %s\n", w.str().c_str());
    std::fflush(stdout);
    log.value().reset();
    fs::remove_all(dir);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* sweep_only = std::getenv("PE_BENCH_SWEEP_ONLY");
  const char* group_commit_only = std::getenv("PE_BENCH_GROUP_COMMIT_ONLY");
  const bool skip_micro =
      (sweep_only != nullptr && sweep_only[0] == '1') ||
      (group_commit_only != nullptr && group_commit_only[0] == '1');
  if (!skip_micro) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (group_commit_only == nullptr || group_commit_only[0] != '1') {
    run_append_sweep();
    run_recovery_sweep();
  }
  run_group_commit_sweep();
  run_batch_append_sweep();
  return 0;
}
