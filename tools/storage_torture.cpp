// Storage kill-loop torture: crash the log at random points, recover,
// verify, repeat.
//
// Each round appends a random number of records (sizes drawn from a
// seeded Rng, payload bytes derived deterministically from the offset) —
// half the appends single records, half append_batch calls of 1-32
// records, each stored as one record batch — fsyncs at random points,
// then cuts power keeping a random fraction of the unsynced tail,
// possibly inside a multi-record batch. Recovery must then uphold the
// durability contract:
//   1. every record that was fsynced is still there;
//   2. what survives is a dense offset prefix — no holes, no reordering;
//   3. every surviving payload is bit-identical to what was appended
//      (CRC-clean, correct length, correct bytes for its offset);
//   4. the torn tail is truncated, never served;
//   5. appends resume exactly at the recovered end offset.
// Violations print the failing invariant and exit non-zero.
//
// A second phase tortures the group-commit path: concurrent kEverySync
// appenders race a power cut that lands mid-group-commit. Every append
// that RETURNED before the cut must survive recovery byte-for-byte —
// under kEverySync, returning is the durability promise.
//
// A third phase models the crash that truncate-based power-loss
// simulation never produces: a log at its retention limit recycles
// segment files, so its active segment holds CRC-valid batches of an older
// offset range behind the valid bytes, and a power cut keeps the file at
// full length. Each round copies the directory's files byte for byte at a
// random point, recovers the copy, and checks the same contract on it.
//
// Usage: storage_torture [rounds] [seed] [dir]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/log_dir.h"
#include "telemetry/metrics.h"

namespace {

using namespace pe;
namespace fs = std::filesystem;

/// Deterministic record content for an offset: verification needs no
/// in-memory bookkeeping that a real crash would also lose.
broker::Record record_for(std::uint64_t offset) {
  broker::Record r;
  r.key = "torture-" + std::to_string(offset);
  const std::size_t size = 16 + (offset * 37) % 4096;
  Bytes value(size, 0);
  for (std::size_t i = 0; i < size; ++i) {
    value[i] = static_cast<std::uint8_t>((offset * 131 + i * 7) & 0xff);
  }
  r.value = std::move(value);
  return r;
}

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "TORTURE FAIL: %s\n", what.c_str());
  std::exit(1);
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

/// One appender's deterministic record: content derives from (thread,
/// sequence) so a surviving offset can be verified against what the
/// thread recorded at return time.
broker::Record group_commit_record(int thread, int seq) {
  broker::Record r;
  r.key = "gc-" + std::to_string(thread) + "-" + std::to_string(seq);
  const std::size_t size = 32 + static_cast<std::size_t>(seq % 256);
  r.value = Bytes(size, static_cast<std::uint8_t>((thread * 31 + seq) & 0xff));
  return r;
}

struct AckedAppend {
  std::uint64_t offset;
  int thread;
  int seq;
};

/// Crash-mid-group-commit torture: concurrent kEverySync appenders, a
/// power cut at a random moment, then recovery. Invariant: every offset
/// returned to an appender before the cut survives with identical bytes.
void run_group_commit_torture(int rounds, std::uint64_t seed,
                              const std::string& dir) {
  Rng rng(seed ^ 0x6772634354ull);  // decorrelate from phase one
  std::uint64_t acked_all_rounds = 0;
  for (int round = 0; round < rounds; ++round) {
    fs::remove_all(dir);
    storage::StorageConfig config;
    config.segment_max_bytes = 16 * 1024 + rng.uniform_int(0, 32 * 1024);
    config.flush_policy = storage::FlushPolicy::kEverySync;
    auto opened = storage::LogDir::open(dir, config, nullptr);
    check(opened.ok(), "gc open: " + opened.status().to_string());
    auto& log = *opened.value();

    constexpr int kThreads = 4;
    std::vector<std::vector<AckedAppend>> acked(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, &acked, t] {
        for (int seq = 0;; ++seq) {
          auto off = log.append(group_commit_record(t, seq),
                                1 + static_cast<std::uint64_t>(seq));
          if (!off.ok()) return;  // power cut landed — stop appending
          acked[static_cast<std::size_t>(t)].push_back(
              {off.value(), t, seq});
        }
      });
    }
    // Let the group-commit pipeline fill, then pull the plug while
    // appenders are mid-flight (some blocked on the leader's fsync).
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng.uniform_int(1, 25)));
    log.simulate_power_loss(rng.uniform(0.0, 1.0));
    for (auto& t : threads) t.join();

    storage::RecoveryReport report;
    auto reopened = storage::LogDir::open(dir, config, &report);
    check(reopened.ok(), "gc reopen: " + reopened.status().to_string());
    auto& recovered = *reopened.value();
    std::uint64_t acked_total = 0;
    for (const auto& per_thread : acked) {
      acked_total += per_thread.size();
      for (const auto& a : per_thread) {
        check(a.offset < report.next_offset,
              "gc round " + std::to_string(round) +
                  ": acked offset " + std::to_string(a.offset) +
                  " lost (recovered end " +
                  std::to_string(report.next_offset) + ")");
        auto fetched = recovered.fetch(a.offset, 1, ~0ull);
        check(fetched.ok() && !fetched.value().empty(),
              "gc fetch@" + std::to_string(a.offset) + " failed");
        const auto want = group_commit_record(a.thread, a.seq);
        const auto& got = fetched.value()[0];
        check(got.record.key == want.key,
              "gc key mismatch at " + std::to_string(a.offset));
        check(got.record.value == want.value,
              "gc payload mismatch at " + std::to_string(a.offset));
      }
    }
    acked_all_rounds += acked_total;
  }
  // A single round may legitimately get cut before the first group sync
  // completes; across all rounds the appenders must have made progress.
  check(acked_all_rounds > 0, "gc torture made no progress in any round");
  fs::remove_all(dir);
}

/// Stale-tail record: a constant key and, when `value_size` is non-zero,
/// a constant size, so a recycled file's stale batches land on the new
/// batches' boundaries; the bytes still derive from the offset.
broker::Record stale_tail_record(std::uint64_t offset,
                                 std::size_t value_size) {
  broker::Record r;
  r.key = "stale";
  const std::size_t size =
      value_size > 0 ? value_size : 16 + (offset * 37) % 2048;
  Bytes value(size, 0);
  for (std::size_t i = 0; i < size; ++i) {
    value[i] = static_cast<std::uint8_t>((offset * 131 + i * 7) & 0xff);
  }
  r.value = std::move(value);
  return r;
}

/// Recovers a full-length copy of `dir` taken while the log was open and
/// checks it against the live log: everything written survives (the copy
/// lost no bytes), nothing past it does, and the offsets are dense with
/// intact payloads. Returns the stale bytes recovery rejected.
std::uint64_t check_full_length_copy(const storage::LogDir& live,
                                     const std::string& dir,
                                     const std::string& copy,
                                     std::size_t value_size,
                                     std::uint64_t synced_floor,
                                     const std::string& where) {
  fs::remove_all(copy);
  fs::create_directories(copy);
  for (const auto& entry : fs::directory_iterator(dir)) {
    fs::copy_file(entry.path(), fs::path(copy) / entry.path().filename());
  }
  storage::RecoveryReport report;
  {  // the recovered log closes before the copy is removed
    auto opened = storage::LogDir::open(copy, live.config(), &report);
    check(opened.ok(), where + ": open copy: " + opened.status().to_string());
    const auto& recovered = *opened.value();
    check(report.next_offset >= synced_floor,
          where + ": lost acked records: recovered to " +
              std::to_string(report.next_offset) + ", acked floor " +
              std::to_string(synced_floor));
    check(report.next_offset == live.end_offset(),
          where + ": recovered end " + std::to_string(report.next_offset) +
              " != written end " + std::to_string(live.end_offset()));
    check(recovered.start_offset() == live.start_offset(),
          where + ": recovered start " +
              std::to_string(recovered.start_offset()) + " != live start " +
              std::to_string(live.start_offset()));
    for (std::uint64_t at = recovered.start_offset();
         at < recovered.end_offset();) {
      auto batch = recovered.fetch(at, 256, ~0ull);
      check(batch.ok() && !batch.value().empty(),
            where + ": hole at offset " + std::to_string(at));
      for (const auto& got : batch.value()) {
        check(got.offset == at, where + ": offset gap: wanted " +
                                    std::to_string(at) + ", got " +
                                    std::to_string(got.offset));
        check(got.record.value ==
                  stale_tail_record(got.offset, value_size).value,
              where + ": payload mismatch at " + std::to_string(got.offset));
        ++at;
      }
    }
  }
  fs::remove_all(copy);
  return report.torn_bytes_truncated;
}

void run_stale_tail_torture(int rounds, std::uint64_t seed,
                                     const std::string& dir) {
  Rng rng(seed ^ 0x7374616c65ull);  // decorrelate from the other phases
  auto& recycled_rolls =
      tel::MetricsRegistry::global().counter("storage.segments_recycled");
  const std::uint64_t recycled_before = recycled_rolls.value();
  std::uint64_t stale_bytes = 0;
  for (int round = 0; round < rounds; ++round) {
    fs::remove_all(dir);
    storage::StorageConfig config;
    config.segment_max_bytes = 8 * 1024 + rng.uniform_int(0, 16 * 1024);
    config.flush_policy = storage::FlushPolicy::kNever;  // explicit syncs
    auto opened = storage::LogDir::open(dir, config, nullptr);
    check(opened.ok(), "stale open: " + opened.status().to_string());
    auto& log = *opened.value();
    // Half the rounds use one record size, so stale frames line up.
    const std::size_t value_size =
        rng.uniform_int(0, 1) == 0
            ? static_cast<std::size_t>(rng.uniform_int(16, 2048))
            : 0;
    // A retention limit of a few segments: from the fourth roll on, every
    // roll reuses the segment the previous retention pass dropped.
    const std::uint64_t max_bytes =
        config.segment_max_bytes * static_cast<std::uint64_t>(
                                       rng.uniform_int(2, 4));
    const int appends = rng.uniform_int(200, 1500);
    const int copy_at = rng.uniform_int(1, appends);
    std::uint64_t synced_floor = 0;
    for (int i = 1; i <= appends; ++i) {
      const std::uint64_t offset = log.end_offset();
      auto off = log.append(stale_tail_record(offset, value_size),
                            1 + offset);
      check(off.ok(), "stale append: " + off.status().to_string());
      log.apply_retention(0, max_bytes, 0);
      if (rng.uniform_int(0, 15) == 0) {
        check(log.sync().ok(), "stale sync failed");
        synced_floor = log.end_offset();
      }
      if (i == copy_at) {
        stale_bytes += check_full_length_copy(
            log, dir, dir + "_copy", value_size, synced_floor,
            "stale round " + std::to_string(round));
      }
    }
  }
  fs::remove_all(dir);
  const std::uint64_t recycled = recycled_rolls.value() - recycled_before;
  check(recycled > 0, "stale-tail torture never reused the recycle slot");
  std::printf("TORTURE PASS: %d stale-tail rounds, %llu recycled rolls, "
              "%llu stale bytes rejected by recovery\n",
              rounds, static_cast<unsigned long long>(recycled),
              static_cast<unsigned long long>(stale_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 50;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;
  const std::string dir =
      argc > 3 ? argv[3]
               : (fs::temp_directory_path() /
                  ("pe_storage_torture_" + std::to_string(seed)))
                     .string();
  fs::remove_all(dir);

  Rng rng(seed);
  std::uint64_t next_offset = 0;   // expected append position
  std::uint64_t synced_floor = 0;  // offsets below this must survive
  std::uint64_t total_torn = 0;

  for (int round = 0; round < rounds; ++round) {
    storage::StorageConfig config;
    // Small segments so crashes regularly land near roll boundaries.
    config.segment_max_bytes = 16 * 1024 + rng.uniform_int(0, 64 * 1024);
    config.flush_policy = storage::FlushPolicy::kNever;  // explicit syncs
    storage::RecoveryReport report;
    auto opened = storage::LogDir::open(dir, config, &report);
    check(opened.ok(), "open: " + opened.status().to_string());
    auto& log = *opened.value();

    // --- verify what recovery kept ---
    check(report.next_offset >= synced_floor,
          "lost fsynced records: recovered to " +
              std::to_string(report.next_offset) + ", fsync floor " +
              std::to_string(synced_floor));
    check(report.next_offset <= next_offset,
          "recovered past the real end: " +
              std::to_string(report.next_offset) + " > " +
              std::to_string(next_offset));
    total_torn += report.torn_bytes_truncated;
    const std::uint64_t start = log.start_offset();
    std::uint64_t at = start;
    while (at < log.end_offset()) {
      auto batch = log.fetch(at, 256, ~0ull);
      check(batch.ok(), "fetch@" + std::to_string(at) + ": " +
                            batch.status().to_string());
      check(!batch.value().empty(),
            "hole at offset " + std::to_string(at));
      for (const auto& got : batch.value()) {
        check(got.offset == at,
              "offset gap: wanted " + std::to_string(at) + ", got " +
                  std::to_string(got.offset));
        const auto want = record_for(got.offset);
        check(got.record.key == want.key,
              "key mismatch at " + std::to_string(got.offset));
        check(got.record.value == want.value,
              "payload mismatch at " + std::to_string(got.offset));
        ++at;
      }
    }
    check(log.fetch(log.end_offset() + 1, 1, ~0ull).status().code() ==
              StatusCode::kOutOfRange,
          "torn tail served past end offset");

    // --- new damage: append, sync some prefix, cut power ---
    next_offset = log.end_offset();
    const int appends = rng.uniform_int(1, 400);
    const int sync_after = rng.uniform_int(0, appends);
    for (int i = 0; i < appends;) {
      const int n = rng.uniform_int(0, 1) == 0
                        ? 1
                        : std::min(static_cast<int>(rng.uniform_int(1, 32)),
                                   appends - i);
      std::vector<broker::Record> records;
      std::vector<storage::TimestampedRecord> batch;
      for (int j = 0; j < n; ++j) {
        records.push_back(record_for(next_offset + j));
      }
      for (int j = 0; j < n; ++j) {
        batch.push_back({&records[static_cast<std::size_t>(j)],
                         1 + next_offset + j});
      }
      auto off = n == 1 ? log.append(records[0], 1 + next_offset)
                        : log.append_batch(batch);
      check(off.ok(), "append: " + off.status().to_string());
      check(off.value() == next_offset,
            "append offset skew: wanted " + std::to_string(next_offset) +
                ", got " + std::to_string(off.value()));
      next_offset += static_cast<std::uint64_t>(n);
      i += n;
      if (i >= sync_after && i - n < sync_after) {
        check(log.sync().ok(), "sync failed");
        synced_floor = next_offset;
      }
    }
    // Occasionally retention-trim the head so long runs stay bounded
    // (whole segments only; never below the fsync floor by contract).
    if (round % 7 == 6) {
      log.apply_retention(/*max_records=*/2000, 0, 0);
    }
    log.simulate_power_loss(rng.uniform(0.0, 1.0));
  }

  std::printf(
      "TORTURE PASS: %d rounds, %llu records appended, %llu torn bytes "
      "truncated across crashes\n",
      rounds, static_cast<unsigned long long>(next_offset),
      static_cast<unsigned long long>(total_torn));
  fs::remove_all(dir);

  // Phase two: crash mid-group-commit with racing kEverySync appenders.
  const int gc_rounds = rounds / 5 + 1;
  run_group_commit_torture(gc_rounds, seed, dir + "_gc");
  std::printf("TORTURE PASS: %d group-commit crash rounds, all acked "
              "records survived\n",
              gc_rounds);

  // Phase three: full-length copies of logs that recycle segment files.
  run_stale_tail_torture(rounds / 4 + 1, seed, dir + "_stale");
  return 0;
}
