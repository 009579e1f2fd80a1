#include "storage/log_dir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "data/codec.h"
#include "telemetry/metrics.h"

namespace pe::storage {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kNoByteLimit = ~0ull;

broker::Record make_record(const std::string& key, std::size_t value_size,
                           std::uint8_t fill = 0x11) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

class LogDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_logdir_" +
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

  std::unique_ptr<LogDir> open(StorageConfig config = {},
                               RecoveryReport* report = nullptr) {
    auto opened = LogDir::open(dir_, config, report);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  std::string dir_;
};

TEST_F(LogDirTest, AppendFetchRoundTrip) {
  auto log = open();
  for (int i = 0; i < 10; ++i) {
    auto appended =
        log->append(make_record("k" + std::to_string(i), 32,
                                static_cast<std::uint8_t>(i)),
                    1000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(appended.ok());
    EXPECT_EQ(appended.value(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log->start_offset(), 0u);
  EXPECT_EQ(log->end_offset(), 10u);
  EXPECT_EQ(log->record_count(), 10u);

  auto fetched = log->fetch(3, 4, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = fetched.value()[i];
    EXPECT_EQ(r.offset, 3 + i);
    EXPECT_EQ(r.broker_timestamp_ns, 1003 + i);
    EXPECT_EQ(r.record.key, "k" + std::to_string(3 + i));
    ASSERT_EQ(r.record.value.size(), 32u);
    EXPECT_EQ(r.record.value[0], static_cast<std::uint8_t>(3 + i));
  }
}

TEST_F(LogDirTest, FetchBoundsAndEmpty) {
  auto log = open();
  EXPECT_TRUE(log->fetch(0, 10, kNoByteLimit).ok());  // empty log, offset 0
  ASSERT_TRUE(log->append(make_record("k", 8), 1).ok());
  EXPECT_FALSE(log->fetch(2, 10, kNoByteLimit).ok());  // beyond end
  auto at_end = log->fetch(1, 10, kNoByteLimit);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end.value().empty());
}

TEST_F(LogDirTest, MaxBytesCountsFirstRecordEvenWhenOversized) {
  auto log = open();
  ASSERT_TRUE(log->append(make_record("big", 4096), 1).ok());
  ASSERT_TRUE(log->append(make_record("next", 16), 2).ok());
  // A byte budget smaller than the first record still ships that record
  // (and only it): an oversized record must not wedge the consumer.
  auto fetched = log->fetch(0, 10, 64);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 1u);
  EXPECT_EQ(fetched.value()[0].record.key, "big");
}

TEST_F(LogDirTest, PayloadsAreZeroCopyViewsIntoTheMapping) {
  auto log = open();
  ASSERT_TRUE(log->append(make_record("k", 64, 0xab), 1).ok());
  auto a = log->fetch(0, 1, kNoByteLimit);
  auto b = log->fetch(0, 1, kNoByteLimit);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both fetches alias the same mapped bytes — no per-fetch copies.
  EXPECT_EQ(a.value()[0].record.value.data(), b.value()[0].record.value.data());
  EXPECT_NE(a.value()[0].record.value.shared().get(), nullptr);
}

TEST_F(LogDirTest, RollsSegmentsAtConfiguredSize) {
  StorageConfig config;
  config.segment_max_bytes = 512;
  auto log = open(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 100), 1 + i).ok());
  }
  EXPECT_GT(log->segment_count(), 3u);
  // Every record is still fetchable across the segment boundaries.
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(fetched.value()[i].offset, i);
  }
}

TEST_F(LogDirTest, ReopenResumesOffsetSequence) {
  {
    auto log = open();
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(
          log->append(make_record("k" + std::to_string(i), 24), 10 + i).ok());
    }
  }  // clean close syncs
  RecoveryReport report;
  auto log = open({}, &report);
  EXPECT_EQ(report.records_recovered, 7u);
  EXPECT_EQ(report.torn_bytes_truncated, 0u);
  EXPECT_EQ(report.next_offset, 7u);
  EXPECT_EQ(log->end_offset(), 7u);
  auto appended = log->append(make_record("k7", 24), 17);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended.value(), 7u);
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 8u);
  EXPECT_EQ(fetched.value()[5].record.key, "k5");
}

TEST_F(LogDirTest, PowerLossTruncatesTornTailOnRecovery) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kNever;
  {
    auto log = open(config);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(log->append(make_record("durable" + std::to_string(i), 32),
                              1 + i)
                      .ok());
    }
    ASSERT_TRUE(log->sync().ok());  // first 4 are now power-loss durable
    for (int i = 4; i < 8; ++i) {
      // Varying sizes keep the cut below off any batch boundary.
      ASSERT_TRUE(log->append(make_record("dirty" + std::to_string(i),
                                          30 + static_cast<std::size_t>(i) *
                                                   7),
                              1 + i)
                      .ok());
    }
    // The cut keeps half of the unsynced tail bytes: some dirty records
    // survive whole, the one at the cut is torn mid-batch.
    log->simulate_power_loss(0.5);
    // A crashed log refuses writes.
    EXPECT_FALSE(log->append(make_record("late", 8), 9).ok());
  }
  RecoveryReport report;
  auto log = open(config, &report);
  EXPECT_GE(report.records_recovered, 4u) << "synced records lost";
  EXPECT_LT(report.records_recovered, 8u) << "unsynced tail fully survived "
                                             "a half-cut power loss";
  EXPECT_GT(report.torn_bytes_truncated, 0u);
  // The survivors are exactly offsets [0, n): dense, no holes, and all
  // fetchable with intact payloads.
  const std::uint64_t n = log->end_offset();
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), n);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fetched.value()[i].record.key,
              "durable" + std::to_string(i));
  }
  // Appends resume at the truncation point.
  auto appended = log->append(make_record("resumed", 8), 99);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended.value(), n);
}

TEST_F(LogDirTest, EverySyncPolicyKeepsSyncedOffsetCurrent) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 16), 1 + i).ok());
    EXPECT_EQ(log->synced_offset(), static_cast<std::uint64_t>(i + 1));
  }
}

TEST_F(LogDirTest, EveryNRecordsPolicySyncsInBatches) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEveryNRecords;
  config.flush_every_n = 4;
  auto log = open(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 16), 1 + i).ok());
  }
  EXPECT_EQ(log->synced_offset(), 0u);
  ASSERT_TRUE(log->append(make_record("k", 16), 4).ok());
  EXPECT_EQ(log->synced_offset(), 4u);
}

TEST_F(LogDirTest, RetentionDropsWholeSegmentsNeverActive) {
  StorageConfig config;
  config.segment_max_bytes = 400;
  auto log = open(config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        log->append(make_record("k" + std::to_string(i), 64), 1 + i).ok());
  }
  const std::size_t before = log->segment_count();
  ASSERT_GT(before, 2u);
  const std::size_t dropped =
      log->apply_retention(/*max_records=*/10, 0, 0);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(log->segment_count(), before - dropped);
  // At least max_records records remain, end offset is untouched, and
  // the start moved to a segment boundary.
  EXPECT_GE(log->record_count(), 10u);
  EXPECT_EQ(log->end_offset(), 30u);
  EXPECT_GT(log->start_offset(), 0u);
  EXPECT_FALSE(log->fetch(0, 1, kNoByteLimit).ok());
  EXPECT_TRUE(log->fetch(log->start_offset(), 1, kNoByteLimit).ok());
  // With only the minimum left, nothing more can be dropped.
  EXPECT_EQ(log->apply_retention(log->record_count(), 0, 0), 0u);
}

TEST_F(LogDirTest, RetentionByAgeDropsOldSegments) {
  StorageConfig config;
  config.segment_max_bytes = 300;
  auto log = open(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 64),
                            1000 + static_cast<std::uint64_t>(i) * 100)
                    .ok());
  }
  // Everything with a timestamp below 2000 is expired; segments wholly
  // older than that go, the active segment never does.
  const std::size_t dropped = log->apply_retention(0, 0, 2000);
  EXPECT_GT(dropped, 0u);
  EXPECT_GE(log->segment_count(), 1u);
  for (const auto& info : log->segments()) {
    if (!info.active) {
      EXPECT_GE(info.last_timestamp_ns, 2000u);
    }
  }
}

TEST_F(LogDirTest, FetchedViewOutlivesRetentionUnlink) {
  StorageConfig config;
  config.segment_max_bytes = 200;
  auto log = open(config);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 64, 0x77), 1 + i).ok());
  }
  auto fetched = log->fetch(0, 1, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  broker::Payload payload = fetched.value()[0].record.value;
  ASSERT_GT(log->apply_retention(2, 0, 0), 0u);  // unlinks old segments
  // The view still reads the unlinked segment's pages.
  EXPECT_EQ(payload.size(), 64u);
  EXPECT_EQ(payload[0], 0x77);
}

// --- group commit ---

TEST_F(LogDirTest, GroupCommitEverySyncAppendersReturnDurable) {
  // The kEverySync contract under concurrency: when append() returns, the
  // record is fsynced — even though most appenders never run an fsync
  // themselves (they piggyback on the group leader's). TSan runs of this
  // test double as the data-race check on the leader/waiter handoff.
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto appended = log->append(
            make_record("t" + std::to_string(t) + "_" + std::to_string(i),
                        64),
            1 + static_cast<std::uint64_t>(i));
        if (!appended.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Exclusive synced_offset must already cover our offset.
        if (appended.value() >= log->synced_offset()) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(log->end_offset(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log->synced_offset(), log->end_offset());
}

TEST_F(LogDirTest, GroupCommitSharesFsyncsAcrossAppenders) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  auto& fsyncs = tel::MetricsRegistry::global().counter("storage.fsyncs");
  const std::uint64_t before = fsyncs.value();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(log->append(make_record("k", 64), 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Serialized per-append fsyncs would cost exactly kThreads*kPerThread;
  // group commit must do strictly better once appenders overlap. (Worst
  // case — zero overlap — equals it, but 4 racing threads always share.)
  EXPECT_LE(fsyncs.value() - before,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log->synced_offset(), log->end_offset());
}

// --- batched appends ---

TEST_F(LogDirTest, AppendBatchRoundTripAndPerRecordTimestamps) {
  auto log = open();
  std::vector<broker::Record> records;
  std::vector<TimestampedRecord> batch;
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record("k" + std::to_string(i), 32,
                                  static_cast<std::uint8_t>(i)));
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back({&records[i], 1000 + static_cast<std::uint64_t>(i)});
  }
  auto first = log->append_batch(batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0u);
  EXPECT_EQ(log->end_offset(), 10u);
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const auto& cr = fetched.value()[static_cast<std::size_t>(i)];
    EXPECT_EQ(cr.offset, static_cast<std::uint64_t>(i));
    EXPECT_EQ(cr.broker_timestamp_ns, 1000 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(cr.record.key, "k" + std::to_string(i));
    EXPECT_EQ(cr.record.value, records[static_cast<std::size_t>(i)].value);
  }
}

TEST_F(LogDirTest, AppendBatchDoesAtMostOneFsyncUnderEverySync) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  std::vector<broker::Record> records;
  for (int i = 0; i < 100; ++i) records.push_back(make_record("k", 128));
  std::vector<TimestampedRecord> batch;
  for (const auto& r : records) batch.push_back({&r, 7});
  auto& fsyncs = tel::MetricsRegistry::global().counter("storage.fsyncs");
  const std::uint64_t before = fsyncs.value();
  ASSERT_TRUE(log->append_batch(batch).ok());
  EXPECT_LE(fsyncs.value() - before, 1u);
  EXPECT_EQ(log->end_offset(), 100u);
  EXPECT_EQ(log->synced_offset(), 100u);
}

TEST_F(LogDirTest, AppendBatchRollsSegmentsMidBatch) {
  StorageConfig config;
  config.segment_max_bytes = 1024;
  auto log = open(config);
  std::vector<broker::Record> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(make_record("k" + std::to_string(i), 200,
                                  static_cast<std::uint8_t>(i)));
  }
  std::vector<TimestampedRecord> batch;
  for (const auto& r : records) batch.push_back({&r, 5});
  ASSERT_TRUE(log->append_batch(batch).ok());
  EXPECT_EQ(log->end_offset(), 20u);
  EXPECT_GT(log->segment_count(), 1u);
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fetched.value()[static_cast<std::size_t>(i)].record.key,
              "k" + std::to_string(i));
  }
}

// --- multi-record batches: reads and cuts inside a batch ---

/// Appends records at offsets [first, first + n) as one append_batch call,
/// which stores them as one batch. Offset o holds key "r<o>", a value of
/// 10 + o bytes filled with o, and broker timestamp 100 + 10 * o.
void append_one_batch(LogDir& log, int first, int n) {
  std::vector<broker::Record> records;
  std::vector<TimestampedRecord> batch;
  for (int o = first; o < first + n; ++o) {
    records.push_back(make_record("r" + std::to_string(o),
                                  10 + static_cast<std::size_t>(o),
                                  static_cast<std::uint8_t>(o)));
  }
  for (int j = 0; j < n; ++j) {
    batch.push_back({&records[static_cast<std::size_t>(j)],
                     100 + 10 * static_cast<std::uint64_t>(first + j)});
  }
  auto appended = log.append_batch(batch);
  ASSERT_TRUE(appended.ok()) << appended.status().to_string();
  ASSERT_EQ(appended.value(), static_cast<std::uint64_t>(first));
}

void expect_record_at(const broker::ConsumedRecord& r, std::uint64_t offset) {
  EXPECT_EQ(r.offset, offset);
  EXPECT_EQ(r.record.key, "r" + std::to_string(offset));
  EXPECT_EQ(r.broker_timestamp_ns, 100 + 10 * offset);
  ASSERT_EQ(r.record.value.size(), 10 + offset);
  EXPECT_EQ(r.record.value[0], static_cast<std::uint8_t>(offset));
}

TEST_F(LogDirTest, FetchFromEveryOffsetInsideABatch) {
  auto log = open();
  append_one_batch(*log, 0, 7);
  append_one_batch(*log, 7, 5);
  for (std::uint64_t from = 0; from < 12; ++from) {
    auto all = log->fetch(from, 100, kNoByteLimit);
    ASSERT_TRUE(all.ok()) << all.status().to_string();
    ASSERT_EQ(all.value().size(), 12 - from) << "from " << from;
    for (std::size_t i = 0; i < all.value().size(); ++i) {
      expect_record_at(all.value()[i], from + i);
    }
    // A fetch that also ends inside a batch.
    auto two = log->fetch(from, 2, kNoByteLimit);
    ASSERT_TRUE(two.ok());
    ASSERT_EQ(two.value().size(), std::min<std::uint64_t>(2, 12 - from));
    expect_record_at(two.value()[0], from);
  }
}

TEST_F(LogDirTest, TruncateInsideABatchEndsAtTheCut) {
  {
    auto log = open();
    append_one_batch(*log, 0, 5);
    append_one_batch(*log, 5, 7);  // [5, 12): the cut lands inside it
    ASSERT_TRUE(log->truncate_suffix(8).ok());
    EXPECT_EQ(log->end_offset(), 8u);
    auto kept = log->fetch(0, 100, kNoByteLimit);
    ASSERT_TRUE(kept.ok());
    ASSERT_EQ(kept.value().size(), 8u);
    for (std::uint64_t o = 0; o < 8; ++o) expect_record_at(kept.value()[o], o);
    // The rewritten batch ends at the last kept record's stamp.
    EXPECT_EQ(log->segments().back().last_timestamp_ns, 170u);
  }
  RecoveryReport report;
  auto log = open({}, &report);
  EXPECT_EQ(report.torn_bytes_truncated, 0u);
  EXPECT_EQ(log->end_offset(), 8u);
  auto kept = log->fetch(5, 100, kNoByteLimit);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept.value().size(), 3u);
  for (std::uint64_t o = 5; o < 8; ++o) {
    expect_record_at(kept.value()[o - 5], o);
  }
  auto next = log->append(make_record("after-cut", 8), 999);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 8u);
  auto after = log->fetch(7, 100, kNoByteLimit);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), 2u);
  EXPECT_EQ(after.value()[1].record.key, "after-cut");
}

TEST_F(LogDirTest, CorruptedBatchFailsFetchAndRecoveryCutsThere) {
  std::uint64_t second_start = 0, second_end = 0, total_bytes = 0;
  {
    auto log = open();
    append_one_batch(*log, 0, 4);
    second_start = log->byte_size();
    append_one_batch(*log, 4, 4);
    second_end = log->byte_size();
    append_one_batch(*log, 8, 4);
    total_bytes = log->byte_size();
    // Flip one byte inside the second batch's records, under the open log.
    std::fstream file(fs::path(dir_) / segment_file_name(0),
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto at =
        static_cast<std::streamoff>((second_start + second_end) / 2);
    char byte = 0;
    file.seekg(at);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(at);
    file.write(&byte, 1);
    file.close();
    // Every fetch that reaches the batch fails; none yields a record of it.
    for (std::uint64_t from = 0; from < 8; ++from) {
      auto fetched = log->fetch(from, 100, kNoByteLimit);
      EXPECT_FALSE(fetched.ok()) << "fetch from " << from;
      EXPECT_EQ(fetched.status().code(), StatusCode::kInternal);
    }
    auto first = log->fetch(0, 4, kNoByteLimit);  // stops before it
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().size(), 4u);
  }
  RecoveryReport report;
  auto log = open({}, &report);
  EXPECT_EQ(log->end_offset(), 4u);
  EXPECT_EQ(log->byte_size(), second_start);
  // The corrupted batch and the valid one behind it are both gone.
  EXPECT_EQ(report.torn_bytes_truncated, total_bytes - second_start);
  auto fetched = log->fetch(0, 100, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 4u);
  for (std::uint64_t o = 0; o < 4; ++o) expect_record_at(fetched.value()[o], o);
}

// --- memory held by the write and read paths ---

TEST_F(LogDirTest, AppendBatchFrameBufferIsNotHandedToPayloads) {
  // A ~103 KB batch encode buffer returned to BufferPool::global() would
  // be the next buffer encode_shared hands out, and a 6.4 KB payload
  // would then pin it for the payload's whole life.
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  // Hold whatever is already pooled, so only buffers this append returns
  // to the pool could reach the payloads below.
  std::vector<std::shared_ptr<Bytes>> drained;
  while (BufferPool::global().free_count() > 0) {
    drained.push_back(BufferPool::global().acquire_shared());
  }
  std::vector<broker::Record> records;
  for (int i = 0; i < 16; ++i) records.push_back(make_record("k", 6400));
  std::vector<TimestampedRecord> batch;
  for (const auto& r : records) batch.push_back({&r, 7});
  ASSERT_TRUE(log->append_batch(batch).ok());

  data::DataBlock block;  // 25 x 32 doubles: a 6.4 KB payload
  block.rows = 25;
  block.cols = 32;
  block.values.assign(block.rows * block.cols, 1.0);
  std::vector<std::shared_ptr<const Bytes>> payloads;
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(data::Codec::encode_shared(block));
    EXPECT_LT(payloads.back()->capacity(), 2 * payloads.back()->size())
        << "payload " << i;
  }
}

TEST_F(LogDirTest, FetchPastSealedSegmentReleasesItsMapping) {
  StorageConfig config;
  config.segment_max_bytes = 512;
  auto log = open(config);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log->append(make_record("k", 100, 0x3c), 1 + i).ok());
  }
  ASSERT_GT(log->segment_count(), 2u);
  std::weak_ptr<const void> first_segment;
  {
    auto fetched = log->fetch(0, 100, kNoByteLimit);  // walks every segment
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched.value().size(), 12u);
    first_segment = fetched.value().front().record.value.shared();
    EXPECT_FALSE(first_segment.expired());  // the records own the region
  }
  // The log kept no mapping of the sealed segment once the records went.
  EXPECT_TRUE(first_segment.expired());
  // A later fetch maps it again.
  auto again = log->fetch(0, 1, kNoByteLimit);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().size(), 1u);
  EXPECT_EQ(again.value()[0].record.value[0], 0x3c);
}

// --- injected append failures ---

TEST_F(LogDirTest, InjectedAppendFailureConsumesNoOffset) {
  StorageConfig config;
  config.flush_policy = FlushPolicy::kEverySync;
  auto log = open(config);
  ASSERT_TRUE(log->append(make_record("a", 16), 1).ok());
  log->inject_append_failures(1);
  auto failed = log->append(make_record("b", 16), 2);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().is_transient());
  EXPECT_EQ(log->end_offset(), 1u);  // the failed append left no trace
  auto retried = log->append(make_record("b", 16), 2);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 1u);  // same offset the failure did not burn
}

// --- recovery: tail-only empty-segment recycling ---

TEST_F(LogDirTest, RecoveryRecyclesEmptyTailSegment) {
  StorageConfig config;
  {
    auto log = open(config);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(log->append(make_record("k" + std::to_string(i), 32),
                              1 + static_cast<std::uint64_t>(i))
                      .ok());
    }
  }  // clean close
  // A crash between roll's file creation and the first append leaves an
  // empty tail segment; model it directly.
  { std::ofstream(fs::path(dir_) / segment_file_name(5)); }
  RecoveryReport report;
  auto log = open(config, &report);
  EXPECT_EQ(report.segments_deleted, 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / segment_file_name(5)));
  EXPECT_EQ(log->end_offset(), 5u);
  // The offset sequence resumes exactly where the data ends.
  auto appended = log->append(make_record("next", 32), 10);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended.value(), 5u);
}

TEST_F(LogDirTest, RecoveryKeepsLoneEmptySegment) {
  // A brand-new log that crashed before its first append: the only
  // segment is empty and must NOT be recycled — it carries the offset
  // sequence base.
  { std::ofstream(fs::path(dir_) / segment_file_name(0)); }
  RecoveryReport report;
  auto log = open({}, &report);
  EXPECT_EQ(report.segments_deleted, 0u);
  EXPECT_EQ(log->end_offset(), 0u);
  ASSERT_TRUE(log->append(make_record("first", 16), 1).ok());
  EXPECT_EQ(log->end_offset(), 1u);
}

// --- recycled segment files ---

// Same-size records, appended one at a time: 165-byte one-record
// batches, three to a 512-byte segment, so a recycled file's stale
// batches start on batch boundaries and carry valid CRCs. Twelve records
// fill segments [0,3) [3,6) [6,9) [9,12).
constexpr std::size_t kRecycleValueBytes = 100;
constexpr std::uint64_t kRecycleFrameBytes = 165;

StorageConfig recycle_config() {
  StorageConfig config;
  config.segment_max_bytes = 512;
  config.flush_policy = FlushPolicy::kNever;
  return config;
}

std::uint64_t recycled_rolls() {
  return tel::MetricsRegistry::global()
      .counter("storage.segments_recycled")
      .value();
}

class RecycleTest : public LogDirTest {
 protected:
  std::string slot() const {
    return (fs::path(dir_) / kRecycleSlotFileName).string();
  }
  std::string segment_path(std::uint64_t base) const {
    return (fs::path(dir_) / segment_file_name(base)).string();
  }
  /// Appends twelve records and retains segment [0,3) away into the slot.
  std::unique_ptr<LogDir> open_with_full_slot() {
    auto log = open(recycle_config());
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(log->append(make_record("k", kRecycleValueBytes),
                              1 + static_cast<std::uint64_t>(i))
                      .ok());
    }
    EXPECT_EQ(log->segment_count(), 4u);
    EXPECT_EQ(log->apply_retention(/*max_records=*/9, 0, 0), 1u);
    EXPECT_TRUE(fs::exists(slot()));
    EXPECT_FALSE(fs::exists(segment_path(0)));
    return log;
  }
  /// Appends `n` records from offset 12 on; the first rolls a segment.
  void append_after_roll(LogDir& log, int n) {
    for (int i = 0; i < n; ++i) {
      auto appended =
          log.append(make_record("n", kRecycleValueBytes, 0x99),
                     100 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(appended.ok());
      EXPECT_EQ(appended.value(), 12u + static_cast<std::uint64_t>(i));
    }
  }
};

TEST_F(RecycleTest, RollReusesSlotAndRecoveryRejectsStaleTailByOffset) {
  auto log = open_with_full_slot();
  const std::uint64_t rolls_before = recycled_rolls();
  append_after_roll(*log, 2);
  EXPECT_EQ(recycled_rolls(), rolls_before + 1);
  EXPECT_FALSE(fs::exists(slot()));
  // The new segment [12,...) is the old [0,3) file, overwritten in place:
  // two fresh batches, then the old file's third batch (offset 2).
  EXPECT_EQ(fs::file_size(segment_path(12)), 3 * kRecycleFrameBytes);
  ASSERT_TRUE(log->sync().ok());

  // A power cut after the sync keeps the file at its full length, stale
  // tail included. Copy the directory byte for byte while the log is open.
  const std::string copy = dir_ + "_copy";
  fs::remove_all(copy);
  fs::create_directories(copy);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    fs::copy_file(entry.path(), fs::path(copy) / entry.path().filename());
  }
  {  // the recovered log closes before the copy is removed
    RecoveryReport report;
    auto recovered = LogDir::open(copy, recycle_config(), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    EXPECT_EQ(recovered.value()->end_offset(), 14u);
    EXPECT_EQ(report.torn_bytes_truncated, kRecycleFrameBytes);
    auto fetched = recovered.value()->fetch(3, 100, kNoByteLimit);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched.value().size(), 11u);
    for (std::size_t i = 0; i < fetched.value().size(); ++i) {
      EXPECT_EQ(fetched.value()[i].offset, 3 + i);
    }
    EXPECT_EQ(fetched.value()[10].record.key, "n");
    EXPECT_EQ(fetched.value()[10].record.value[0], 0x99);
  }
  fs::remove_all(copy);
}

TEST_F(RecycleTest, LiveViewOfDroppedSegmentForcesUnlink) {
  auto log = open(recycle_config());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log->append(make_record("k", kRecycleValueBytes, 0x5a),
                            1 + static_cast<std::uint64_t>(i))
                    .ok());
  }
  auto fetched = log->fetch(0, 1, kNoByteLimit);
  ASSERT_TRUE(fetched.ok());
  const broker::Payload held = fetched.value()[0].record.value;
  const std::uint64_t rolls_before = recycled_rolls();
  ASSERT_EQ(log->apply_retention(/*max_records=*/9, 0, 0), 1u);
  EXPECT_FALSE(fs::exists(slot()));
  EXPECT_FALSE(fs::exists(segment_path(0)));
  append_after_roll(*log, 3);  // rolls into a fresh file
  EXPECT_EQ(recycled_rolls(), rolls_before);
  ASSERT_EQ(held.size(), kRecycleValueBytes);
  for (std::size_t i = 0; i < held.size(); ++i) {
    ASSERT_EQ(held[i], 0x5a) << "byte " << i;
  }
}

TEST_F(RecycleTest, SuffixTruncationNeverFillsTheSlot) {
  auto log = open(recycle_config());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log->append(make_record("k", kRecycleValueBytes),
                            1 + static_cast<std::uint64_t>(i))
                    .ok());
  }
  const std::uint64_t rolls_before = recycled_rolls();
  // Deletes [6,9) and [9,12) and cuts [3,6) after offset 3.
  ASSERT_TRUE(log->truncate_suffix(4).ok());
  EXPECT_FALSE(fs::exists(slot()));
  EXPECT_FALSE(fs::exists(segment_path(6)));
  EXPECT_FALSE(fs::exists(segment_path(9)));
  for (int i = 0; i < 3; ++i) {  // the third rolls
    ASSERT_TRUE(log->append(make_record("k", kRecycleValueBytes), 50).ok());
  }
  EXPECT_EQ(recycled_rolls(), rolls_before);
  EXPECT_EQ(fs::file_size(segment_path(6)), kRecycleFrameBytes);
}

TEST_F(RecycleTest, OpenDeletesLeftoverSlot) {
  open_with_full_slot().reset();  // clean close with a full slot
  ASSERT_TRUE(fs::exists(slot()));
  RecoveryReport report;
  auto log = open(recycle_config(), &report);
  EXPECT_FALSE(fs::exists(slot()));
  EXPECT_EQ(report.torn_bytes_truncated, 0u);
  EXPECT_EQ(log->start_offset(), 3u);
  EXPECT_EQ(log->end_offset(), 12u);
  // With the slot gone, the next roll creates a fresh file.
  const std::uint64_t rolls_before = recycled_rolls();
  append_after_roll(*log, 1);
  EXPECT_EQ(recycled_rolls(), rolls_before);
}

TEST_F(RecycleTest, CleanCloseCutsRecycledActiveSegment) {
  {
    auto log = open_with_full_slot();
    append_after_roll(*log, 1);
    EXPECT_EQ(fs::file_size(segment_path(12)), 3 * kRecycleFrameBytes);
  }  // clean close
  EXPECT_EQ(fs::file_size(segment_path(12)), kRecycleFrameBytes);
  RecoveryReport report;
  auto log = open(recycle_config(), &report);
  EXPECT_EQ(report.torn_bytes_truncated, 0u);
  EXPECT_EQ(log->end_offset(), 13u);
}

TEST_F(RecycleTest, RollSealsRecycledSegmentAtItsValidBytes) {
  auto log = open_with_full_slot();
  append_after_roll(*log, 1);
  // A record too large for the rest of [12,13) rolls past it: the sealed
  // file is cut at its one record. A stale tail left in a sealed segment
  // would read as a mid-log tear and cost every later segment at
  // recovery.
  ASSERT_TRUE(log->append(make_record("m", 400), 200).ok());
  EXPECT_EQ(fs::file_size(segment_path(12)), kRecycleFrameBytes);
  EXPECT_EQ(log->end_offset(), 14u);
}

}  // namespace
}  // namespace pe::storage
