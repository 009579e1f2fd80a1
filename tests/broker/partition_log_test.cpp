#include "broker/partition_log.h"

#include <gtest/gtest.h>

#include <thread>

namespace pe::broker {
namespace {

Record make_record(const std::string& key, std::size_t value_size = 10) {
  Record r;
  r.key = key;
  r.value = Bytes(value_size, 0x42);
  return r;
}

TEST(PartitionLogTest, AppendAssignsDenseOffsets) {
  PartitionLog log;
  EXPECT_EQ(log.append(make_record("a")).value(), 0u);
  EXPECT_EQ(log.append(make_record("b")).value(), 1u);
  EXPECT_EQ(log.append(make_record("c")).value(), 2u);
  EXPECT_EQ(log.end_offset(), 3u);
  EXPECT_EQ(log.log_start_offset(), 0u);
  EXPECT_EQ(log.record_count(), 3u);
}

TEST(PartitionLogTest, AppendBatchReturnsFirstOffset) {
  PartitionLog log;
  (void)log.append(make_record("x"));
  std::vector<Record> batch = {make_record("a"), make_record("b")};
  EXPECT_EQ(log.append_batch(std::move(batch)).value(), 1u);
  EXPECT_EQ(log.end_offset(), 3u);
}

TEST(PartitionLogTest, FetchReturnsFromOffset) {
  PartitionLog log;
  for (int i = 0; i < 5; ++i) (void)log.append(make_record(std::to_string(i)));
  FetchSpec spec;
  spec.offset = 2;
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 3u);
  EXPECT_EQ(result.value()[0].offset, 2u);
  EXPECT_EQ(result.value()[0].record.key, "2");
  EXPECT_GT(result.value()[0].broker_timestamp_ns, 0u);
}

TEST(PartitionLogTest, FetchRespectsMaxRecords) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) (void)log.append(make_record("k"));
  FetchSpec spec;
  spec.max_records = 4;
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 4u);
}

TEST(PartitionLogTest, FetchRespectsMaxBytesButReturnsAtLeastOne) {
  PartitionLog log;
  (void)log.append(make_record("a", 1000));
  (void)log.append(make_record("b", 1000));
  FetchSpec spec;
  spec.max_bytes = 10;  // smaller than a single record
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 1u);  // never starves
}

TEST(PartitionLogTest, FetchAtEndReturnsEmptyNonBlocking) {
  PartitionLog log;
  (void)log.append(make_record("a"));
  FetchSpec spec;
  spec.offset = 1;
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(PartitionLogTest, FetchBeyondEndIsOutOfRange) {
  PartitionLog log;
  FetchSpec spec;
  spec.offset = 5;
  EXPECT_EQ(log.fetch(spec).status().code(), StatusCode::kOutOfRange);
}

// A fetch never blocks. The long poll is the caller's: read the waiter's
// epoch, fetch (at the end this parks the waiter), wait, fetch again.
TEST(PartitionLogTest, LongPollWakesOnAppend) {
  PartitionLog log;
  FetchSpec spec;
  spec.offset = 0;
  spec.waiter = std::make_shared<Waiter>();

  Stopwatch sw;
  const std::uint64_t seen = spec.waiter->epoch();
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  std::thread appender([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    (void)log.append(make_record("late"));
  });
  EXPECT_TRUE(spec.waiter->wait(seen, Clock::now() + std::chrono::seconds(5)));
  result = log.fetch(spec);
  appender.join();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_LT(sw.elapsed_ms(), 4000.0);  // woke well before the deadline
}

TEST(PartitionLogTest, LongPollTimesOutEmpty) {
  PartitionLog log;
  FetchSpec spec;
  spec.waiter = std::make_shared<Waiter>();
  Stopwatch sw;
  const std::uint64_t seen = spec.waiter->epoch();
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  EXPECT_FALSE(spec.waiter->wait(
      seen, Clock::now() + std::chrono::milliseconds(30)));
  EXPECT_GE(sw.elapsed_ms(), 25.0);
}

TEST(PartitionLogTest, WaiterParksOnceAndWeakly) {
  PartitionLog log;
  FetchSpec spec;
  spec.waiter = std::make_shared<Waiter>();
  // Parked twice at the end: one append notifies it once.
  ASSERT_TRUE(log.fetch(spec).ok());
  ASSERT_TRUE(log.fetch(spec).ok());
  ASSERT_TRUE(log.append(make_record("a")).ok());
  EXPECT_EQ(spec.waiter->epoch(), 1u);
  // The list was taken: a second append notifies nobody.
  ASSERT_TRUE(log.append(make_record("b")).ok());
  EXPECT_EQ(spec.waiter->epoch(), 1u);
  // A fetch that returns records parks nothing.
  ASSERT_EQ(log.fetch(spec).value().size(), 2u);
  ASSERT_TRUE(log.append(make_record("c")).ok());
  EXPECT_EQ(spec.waiter->epoch(), 1u);
  // The log holds a weak reference: a waiter gone before the append is
  // skipped.
  spec.offset = log.end_offset();
  ASSERT_TRUE(log.fetch(spec).ok());
  spec.waiter.reset();
  EXPECT_TRUE(log.append(make_record("d")).ok());
}

TEST(PartitionLogTest, RetentionByRecordsTrimsHead) {
  PartitionLog log(RetentionPolicy{.max_records = 3, .max_bytes = 0});
  for (int i = 0; i < 5; ++i) (void)log.append(make_record(std::to_string(i)));
  EXPECT_EQ(log.record_count(), 3u);
  EXPECT_EQ(log.log_start_offset(), 2u);
  EXPECT_EQ(log.end_offset(), 5u);

  FetchSpec spec;
  spec.offset = 0;
  EXPECT_EQ(log.fetch(spec).status().code(), StatusCode::kOutOfRange);
  spec.offset = 2;
  auto result = log.fetch(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().front().record.key, "2");
}

TEST(PartitionLogTest, RetentionByBytesKeepsAtLeastOneRecord) {
  PartitionLog log(RetentionPolicy{.max_records = 0, .max_bytes = 50});
  (void)log.append(make_record("big", 500));
  EXPECT_EQ(log.record_count(), 1u);  // single record always retained
  (void)log.append(make_record("big2", 500));
  EXPECT_EQ(log.record_count(), 1u);
  EXPECT_EQ(log.log_start_offset(), 1u);
}

TEST(PartitionLogTest, YoungLogWithLargeMaxAgeRetainsEverything) {
  // Regression: when the clock reading is smaller than max_age the cutoff
  // `now - max_age` used to wrap to a huge unsigned value and evict every
  // entry but the newest. The subtraction must saturate at zero instead.
  PartitionLog log(RetentionPolicy{
      .max_records = 0, .max_bytes = 0, .max_age = Duration::max()});
  for (int i = 0; i < 5; ++i) (void)log.append(make_record(std::to_string(i)));
  EXPECT_EQ(log.record_count(), 5u);
  EXPECT_EQ(log.log_start_offset(), 0u);
}

TEST(PartitionLogTest, FetchReturnsSharedPayloadViews) {
  // Zero-copy data plane: every fetch of the same offset hands out a view
  // of the one payload buffer stored at append time, not a fresh copy.
  PartitionLog log;
  (void)log.append(make_record("a", 100));
  FetchSpec spec;
  auto first = log.fetch(spec);
  auto second = log.fetch(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.value().size(), 1u);
  ASSERT_EQ(second.value().size(), 1u);
  const Payload& p1 = first.value()[0].record.value;
  const Payload& p2 = second.value()[0].record.value;
  EXPECT_EQ(p1.data(), p2.data());
  EXPECT_EQ(p1.shared().get(), p2.shared().get());
  // The log's own entry plus the two fetched views share one buffer.
  EXPECT_GE(p1.use_count(), 3);
}

TEST(PartitionLogTest, ByteSizeTracksWireSize) {
  PartitionLog log;
  (void)log.append(make_record("ab", 100));  // 2 + 100 + overhead
  EXPECT_EQ(log.byte_size(), 102u + kRecordWireOverheadBytes);
}

TEST(PartitionLogTest, ConcurrentAppendsKeepOffsetsUnique) {
  PartitionLog log;
  constexpr int kThreads = 4, kPer = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPer; ++i) (void)log.append(make_record("k"));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.end_offset(), static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(log.record_count(), static_cast<std::uint64_t>(kThreads * kPer));
}

}  // namespace
}  // namespace pe::broker
