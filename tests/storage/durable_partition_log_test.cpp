#include "broker/partition_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace pe::broker {
namespace {

namespace fs = std::filesystem;

Record make_record(const std::string& key, std::size_t value_size = 10,
                   std::uint8_t fill = 0x42) {
  Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

class DurablePartitionLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_dplog_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(DurablePartitionLogTest, WritesThroughAndServesHotFetches) {
  PartitionLog log({}, dir_);
  ASSERT_TRUE(log.durable());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log.append(make_record(std::to_string(i))).value(),
              static_cast<std::uint64_t>(i));
  }
  ASSERT_NE(log.log_dir(), nullptr);
  EXPECT_EQ(log.log_dir()->end_offset(), 5u);

  FetchSpec spec;
  spec.offset = 2;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 3u);
  EXPECT_EQ(fetched.value()[0].record.key, "2");
}

TEST_F(DurablePartitionLogTest, ColdFetchServesRecordsBelowHotWindow) {
  // Hot window keeps only the last 3 records; the durable tier keeps all.
  RetentionPolicy retention;
  retention.max_records = 3;
  PartitionLog log(retention, dir_);
  for (int i = 0; i < 10; ++i) {
    (void)log.append(make_record("k" + std::to_string(i), 32,
                           static_cast<std::uint8_t>(i)));
  }
  // In-memory-only logs would have retained offset 0 away; the durable
  // tier still serves it (whole-segment retention has nothing to drop at
  // this size).
  FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 100;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fetched.value()[i].offset, i);
    EXPECT_EQ(fetched.value()[i].record.key, "k" + std::to_string(i));
    ASSERT_FALSE(fetched.value()[i].record.value.empty());
    EXPECT_EQ(fetched.value()[i].record.value[0],
              static_cast<std::uint8_t>(i));
  }
}

// Satellite regression: the first record must count toward max_bytes on
// BOTH tiers — an oversized first record is returned alone, not starved.
TEST_F(DurablePartitionLogTest, MaxBytesFirstRecordRuleHoldsOnBothTiers) {
  RetentionPolicy retention;
  retention.max_records = 2;  // pushes early records out of the hot window
  PartitionLog log(retention, dir_);
  (void)log.append(make_record("cold-big", 4096));
  (void)log.append(make_record("cold-next", 16));
  (void)log.append(make_record("hot-big", 4096));
  (void)log.append(make_record("hot-next", 16));

  FetchSpec spec;
  spec.max_bytes = 10;  // smaller than any record
  spec.offset = 0;      // cold path
  auto cold = log.fetch(spec);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold.value().size(), 1u);
  EXPECT_EQ(cold.value()[0].record.key, "cold-big");

  spec.offset = 2;  // hot path
  auto hot = log.fetch(spec);
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot.value().size(), 1u);
  EXPECT_EQ(hot.value()[0].record.key, "hot-big");
}

TEST_F(DurablePartitionLogTest, ReopenResumesOffsetSequence) {
  {
    PartitionLog log({}, dir_);
    for (int i = 0; i < 6; ++i) (void)log.append(make_record(std::to_string(i)));
    ASSERT_TRUE(log.sync().ok());
  }
  PartitionLog log({}, dir_);
  EXPECT_EQ(log.recovery_report().records_recovered, 6u);
  EXPECT_EQ(log.end_offset(), 6u);
  EXPECT_EQ(log.append(make_record("six")).value(), 6u);
  // The pre-crash records are below the (empty) hot window: cold path.
  FetchSpec spec;
  spec.offset = 3;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 4u);
  EXPECT_EQ(fetched.value()[0].record.key, "3");
  EXPECT_EQ(fetched.value()[3].record.key, "six");
}

TEST_F(DurablePartitionLogTest, PowerLossThenReopenTruncatesTornTail) {
  storage::StorageConfig config;
  config.flush_policy = storage::FlushPolicy::kNever;
  std::uint64_t synced = 0;
  {
    PartitionLog log({}, dir_, config);
    for (int i = 0; i < 4; ++i) (void)log.append(make_record("durable", 64));
    ASSERT_TRUE(log.sync().ok());
    synced = log.log_dir()->synced_offset();
    ASSERT_EQ(synced, 4u);
    for (int i = 0; i < 4; ++i) (void)log.append(make_record("dirty", 64));
    log.simulate_power_loss(0.3);
  }
  PartitionLog log({}, dir_, config);
  const auto& report = log.recovery_report();
  EXPECT_GE(report.records_recovered, synced);
  EXPECT_LT(report.records_recovered, 8u);
  EXPECT_GT(report.torn_bytes_truncated, 0u);
  EXPECT_EQ(log.end_offset(), report.next_offset);
  // Only whole, CRC-clean records are served — fetching the full range
  // returns exactly the recovered prefix.
  FetchSpec spec;
  spec.max_records = 100;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().size(), report.records_recovered);
}

// Satellite: offset_for_timestamp answers correctly whether the target
// record sits in the hot deque or only in the cold segments.
TEST_F(DurablePartitionLogTest, OffsetForTimestampSpansBothTiers) {
  RetentionPolicy retention;
  retention.max_records = 4;
  PartitionLog log(retention, dir_);
  std::vector<std::uint64_t> stamps;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t off = log.append(make_record("k", 16)).value();
    FetchSpec spec;
    spec.offset = off;
    auto fetched = log.fetch(spec);
    ASSERT_TRUE(fetched.ok());
    stamps.push_back(fetched.value()[0].broker_timestamp_ns);
  }
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    // Each append issues a disk write, so timestamps are strictly
    // increasing at ns resolution; the lookups below rely on it.
    ASSERT_LT(stamps[i - 1], stamps[i]);
  }
  // Hot window holds offsets [8, 12); everything earlier is cold-only.
  EXPECT_EQ(log.offset_for_timestamp(0), 0u);
  EXPECT_EQ(log.offset_for_timestamp(stamps[2]), 2u);    // cold tier
  EXPECT_EQ(log.offset_for_timestamp(stamps[6] + 1), 7u);
  EXPECT_EQ(log.offset_for_timestamp(stamps[10]), 10u);  // hot tier
  EXPECT_EQ(log.offset_for_timestamp(stamps[11] + 1), 12u);
}

// Satellite: combined retention — all three bounds active at once; the
// tightest bound wins and the boundary record survives.
TEST(RetentionPolicyTest, CombinedBoundsTightestWins) {
  RetentionPolicy retention;
  retention.max_records = 100;        // loose
  retention.max_bytes = 5 * (50 + kRecordWireOverheadBytes + 1);  // ~5 recs
  retention.max_age = std::chrono::hours(24);  // loose
  PartitionLog log(retention);
  for (int i = 0; i < 20; ++i) {
    (void)log.append(make_record(std::to_string(i), 50));
  }
  EXPECT_LE(log.byte_size(), retention.max_bytes);
  EXPECT_GT(log.record_count(), 0u);
  EXPECT_EQ(log.end_offset(), 20u);
  EXPECT_EQ(log.log_start_offset(), 20u - log.record_count());
  // The oldest retained record is still fetchable; one below it is gone.
  FetchSpec spec;
  spec.offset = log.log_start_offset();
  EXPECT_TRUE(log.fetch(spec).ok());
  if (log.log_start_offset() > 0) {
    spec.offset = log.log_start_offset() - 1;
    EXPECT_FALSE(log.fetch(spec).ok());
  }
}

TEST(RetentionPolicyTest, MaxRecordsBoundIsExact) {
  RetentionPolicy retention;
  retention.max_records = 3;
  PartitionLog log(retention);
  for (int i = 0; i < 10; ++i) (void)log.append(make_record("k"));
  EXPECT_EQ(log.record_count(), 3u);
  EXPECT_EQ(log.log_start_offset(), 7u);
}

TEST(RetentionPolicyTest, ZeroMeansUnlimited) {
  PartitionLog log;  // all bounds zero
  for (int i = 0; i < 64; ++i) (void)log.append(make_record("k", 128));
  EXPECT_EQ(log.record_count(), 64u);
  EXPECT_EQ(log.log_start_offset(), 0u);
}

// Regression (PR 7 tentpole satellite): a failed durable append must
// surface to the producer as a transient error and must NOT advance the
// offset sequence past what is actually on disk. Before the fix, the
// failure was WARN-logged and the record acked from memory — a silent
// durability hole.
TEST_F(DurablePartitionLogTest, FailedDurableAppendIsNeverAcked) {
  PartitionLog log({}, dir_);
  ASSERT_TRUE(log.append(make_record("ok")).ok());
  auto& errors =
      tel::MetricsRegistry::global().counter("storage.append_errors");
  const std::uint64_t errors_before = errors.value();

  log.log_dir()->inject_append_failures(1);
  auto failed = log.append(make_record("lost"));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().is_transient());  // producer may retry
  EXPECT_EQ(errors.value(), errors_before + 1);
  // Neither tier moved: the in-memory end matches the durable end.
  EXPECT_EQ(log.end_offset(), 1u);
  EXPECT_EQ(log.log_dir()->end_offset(), 1u);

  // The retry lands on the very offset the failure did not burn, and the
  // consumer-visible sequence stays dense.
  auto retried = log.append(make_record("retried"));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 1u);
  FetchSpec spec;
  spec.max_records = 100;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 2u);
  EXPECT_EQ(fetched.value()[0].record.key, "ok");
  EXPECT_EQ(fetched.value()[1].record.key, "retried");
}

/// The three entry points into PartitionLog's one write body.
enum class AppendEntry { kAppend, kAppendBatch, kAppendReplicated };

// Names each case by its entry point; the default printer dumps the
// enum's raw bytes.
void PrintTo(AppendEntry e, std::ostream* os) {
  switch (e) {
    case AppendEntry::kAppend: *os << "append"; return;
    case AppendEntry::kAppendBatch: *os << "append_batch"; return;
    case AppendEntry::kAppendReplicated: *os << "append_replicated"; return;
  }
}

class DurableAppendFailureTest
    : public DurablePartitionLogTest,
      public ::testing::WithParamInterface<AppendEntry> {
 protected:
  /// Appends one record per key through the entry point under test and
  /// returns the first offset. append() takes one call per record and
  /// stops at the first failure. A replicated record i carries the leader
  /// timestamp `leader_ts + i`.
  Result<std::uint64_t> append_via(PartitionLog& log,
                                   const std::vector<std::string>& keys,
                                   std::uint64_t leader_ts) {
    switch (GetParam()) {
      case AppendEntry::kAppend: {
        std::uint64_t first = log.end_offset();
        for (const std::string& key : keys) {
          auto r = log.append(make_record(key));
          if (!r.ok()) return r.status();
        }
        return first;
      }
      case AppendEntry::kAppendBatch: {
        std::vector<Record> records;
        for (const std::string& key : keys) {
          records.push_back(make_record(key));
        }
        return log.append_batch(std::move(records));
      }
      case AppendEntry::kAppendReplicated: {
        std::vector<ConsumedRecord> records;
        for (const std::string& key : keys) {
          ConsumedRecord cr;
          cr.broker_timestamp_ns = leader_ts + records.size();
          cr.record = make_record(key);
          records.push_back(std::move(cr));
        }
        return log.append_replicated(std::move(records));
      }
    }
    return Status::Internal("unknown entry point");
  }
};

// DESIGN §9: a failed durable write is never acked and never enters the
// hot window, whichever entry point it came through.
TEST_P(DurableAppendFailureTest, FailedAppendKeepsTiersAligned) {
  PartitionLog log({}, dir_);
  ASSERT_TRUE(append_via(log, {"w0", "w1"}, 1000).ok());

  log.log_dir()->inject_append_failures(1);
  auto failed = append_via(log, {"d0", "d1", "d2"}, 2000);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().is_transient());
  // The whole call was rejected before any frame hit the file, so no
  // partial prefix exists and both tiers agree.
  EXPECT_EQ(log.end_offset(), 2u);
  EXPECT_EQ(log.end_offset(), log.log_dir()->end_offset());

  auto retried = append_via(log, {"r0", "r1"}, 3000);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 2u);
  EXPECT_EQ(log.end_offset(), log.log_dir()->end_offset());
  // Dense, gap-free consumer view across warmup + retry, the same in the
  // hot window and on disk.
  FetchSpec spec;
  spec.max_records = 100;
  auto hot = log.fetch(spec);
  ASSERT_TRUE(hot.ok());
  auto cold = log.log_dir()->fetch(0, 100, spec.max_bytes);
  ASSERT_TRUE(cold.ok());
  const std::vector<std::string> keys = {"w0", "w1", "r0", "r1"};
  ASSERT_EQ(log.end_offset(), keys.size());
  for (const auto* fetched : {&hot.value(), &cold.value()}) {
    ASSERT_EQ(fetched->size(), log.end_offset());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ((*fetched)[i].offset, i);
      EXPECT_EQ((*fetched)[i].record.key, keys[i]);
    }
    if (GetParam() == AppendEntry::kAppendReplicated) {
      // The retried records keep the leader timestamps they were given.
      EXPECT_EQ((*fetched)[2].broker_timestamp_ns, 3000u);
      EXPECT_EQ((*fetched)[3].broker_timestamp_ns, 3001u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, DurableAppendFailureTest,
    ::testing::Values(AppendEntry::kAppend, AppendEntry::kAppendBatch,
                      AppendEntry::kAppendReplicated));

// Durable retention drops whole segments only: the hot window may shrink
// to max_records, but the cold tier keeps everything in the active
// segment, so log_start_offset only moves at segment boundaries.
TEST_F(DurablePartitionLogTest, DurableRetentionMovesStartBySegments) {
  RetentionPolicy retention;
  retention.max_records = 4;
  storage::StorageConfig config;
  config.segment_max_bytes = 512;
  PartitionLog log(retention, dir_, config);
  for (int i = 0; i < 40; ++i) (void)log.append(make_record("k", 100));
  const std::uint64_t start = log.log_start_offset();
  EXPECT_GT(start, 0u);          // old segments were dropped...
  EXPECT_EQ(log.end_offset(), 40u);
  EXPECT_GE(log.record_count(), retention.max_records);
  // ...and the start offset equals a retained segment's base, so every
  // offset from start to end is fetchable with no hole.
  FetchSpec spec;
  spec.offset = start;
  spec.max_records = 100;
  auto fetched = log.fetch(spec);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().size(), 40u - start);
  spec.offset = start - 1;
  EXPECT_FALSE(log.fetch(spec).ok());
}

// end_offset() takes no lock, yet a reader must find every offset below
// the value it read, even while the writer is inside a durable append.
TEST_F(DurablePartitionLogTest, EndOffsetIsFetchableDuringDurableAppends) {
  // No retention bound: a reader that lags must not fall below the start.
  RetentionPolicy retention;
  retention.hot_max_bytes = 8 * 1024;  // lagging reads take the cold path
  storage::StorageConfig config;
  config.segment_max_bytes = 16 * 1024;
  config.flush_policy = storage::FlushPolicy::kEverySync;
  PartitionLog log(retention, dir_, config);
  ASSERT_TRUE(log.durable());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int b = 0; b < 300; ++b) {
      std::vector<Record> batch;
      for (int i = 0; i < 8; ++i) batch.push_back(make_record("k", 200));
      EXPECT_TRUE(log.append_batch(std::move(batch)).ok());
    }
    done.store(true);
  });
  std::uint64_t reads = 0;
  std::uint64_t failures = 0;
  while (!done.load()) {
    const std::uint64_t e = log.end_offset();
    if (e == 0) continue;
    FetchSpec spec;
    spec.offset = e - 1;
    spec.max_records = 1;
    auto fetched = log.fetch(spec);
    if (!fetched.ok() || fetched.value().empty() ||
        fetched.value()[0].offset != e - 1) {
      ++failures;
    }
    ++reads;
  }
  writer.join();
  EXPECT_EQ(failures, 0u) << "of " << reads << " reads";
  EXPECT_EQ(log.end_offset(), 2400u);
}

}  // namespace
}  // namespace pe::broker
