// Admission-control coverage: token-bucket refill math driven with
// synthetic emulated timestamps, per-client quota gating (throttle is
// transient and recovers), race-free hot-window reservations, and the
// broker-wide cap held under a concurrent produce storm.
#include "broker/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "broker/broker.h"

namespace pe::broker {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr std::uint64_t kSecondNs = 1'000'000'000ull;

TEST(TokenBucketTest, StartsFullAndReportsRetryAfterOnDeficit) {
  TokenBucket bucket(/*rate_per_sec=*/100.0, /*burst=*/50.0);
  EXPECT_DOUBLE_EQ(bucket.available(0), 50.0);
  EXPECT_TRUE(bucket.try_acquire(50.0, 0));

  Duration retry{};
  EXPECT_FALSE(bucket.try_acquire(1.0, 0, &retry));
  // Deficit of 1 token at 100 tokens/s refills in 10 emulated ms.
  EXPECT_GE(retry, 9ms);
  EXPECT_LE(retry, 11ms);
}

TEST(TokenBucketTest, RefillsAtRateCappedAtBurst) {
  TokenBucket bucket(100.0, 50.0);
  ASSERT_TRUE(bucket.try_acquire(50.0, 0));

  // 0.2 emulated seconds later ~20 tokens are back (19.9 admits, 25
  // does not — the margin keeps the check off exact float boundaries).
  EXPECT_FALSE(bucket.try_acquire(25.0, kSecondNs / 5));
  EXPECT_TRUE(bucket.try_acquire(19.9, kSecondNs / 5));

  // A long idle period refills to the burst depth, not rate * elapsed.
  EXPECT_DOUBLE_EQ(bucket.available(100 * kSecondNs), 50.0);
}

TEST(TokenBucketTest, OversizedRequestOverdrawsOnlyAFullBucket) {
  TokenBucket bucket(100.0, 50.0);
  // Bigger than the whole burst: can never accumulate, so a full bucket
  // lets it through and goes into debt.
  ASSERT_TRUE(bucket.try_acquire(120.0, 0));

  Duration retry{};
  EXPECT_FALSE(bucket.try_acquire(1.0, 0, &retry));
  // Debt of 70 plus the request refills in ~0.71 emulated seconds.
  EXPECT_GE(retry, 700ms);

  // While in debt, another oversized request is NOT admitted — the
  // overdraft only applies at full depth, keeping the long-run rate
  // bounded.
  EXPECT_FALSE(bucket.try_acquire(120.0, 0));

  // Once the debt refills the bucket serves again.
  EXPECT_TRUE(bucket.try_acquire(1.0, kSecondNs));
}

TEST(TokenBucketTest, CanAcquireDoesNotConsumeUntilCommit) {
  TokenBucket bucket(10.0, 10.0);
  EXPECT_TRUE(bucket.can_acquire(10.0, 0));
  EXPECT_TRUE(bucket.can_acquire(10.0, 0));  // nothing was taken
  bucket.commit(10.0);
  EXPECT_FALSE(bucket.can_acquire(1.0, 0));
}

TEST(AdmissionControllerTest, EmptyClientIdIsQuotaExempt) {
  AdmissionConfig config;
  config.default_quota.bytes_per_sec = 10.0;
  config.default_quota.records_per_sec = 1.0;
  AdmissionController admission(config);
  // Internal produces (dead-letter routing, replication) must drain.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.admit("", 1000, 1'000'000).ok());
  }
}

TEST(AdmissionControllerTest, ThrottleIsTransientAndRecovers) {
  // Client buckets refill in emulated time (wall elapsed x scale): run
  // the refill fast so the recovery half takes a few wall milliseconds.
  ScopedTimeScale scale(200.0);
  AdmissionConfig config;
  config.default_quota.bytes_per_sec = 1e6;
  AdmissionController admission(config);

  ASSERT_TRUE(admission.admit("edge-client", 1, 1'000'000).ok());
  auto throttled = admission.admit("edge-client", 1, 500'000);
  ASSERT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(throttled.is_transient());
  ASSERT_GT(throttled.retry_after(), Duration::zero());

  // Waiting out the hint makes the same request succeed — throttled, not
  // dropped.
  Status retried = throttled;
  for (int attempt = 0; attempt < 50 && !retried.ok(); ++attempt) {
    Clock::sleep_scaled(retried.retry_after() > Duration::zero()
                            ? retried.retry_after()
                            : Duration(1ms));
    retried = admission.admit("edge-client", 1, 500'000);
  }
  EXPECT_TRUE(retried.ok());
}

TEST(AdmissionControllerTest, RecordQuotaGatesIndependentlyOfBytes) {
  AdmissionConfig config;
  config.default_quota.records_per_sec = 100.0;  // bytes unlimited
  AdmissionController admission(config);
  ASSERT_TRUE(admission.admit("c", 100, 1).ok());
  auto throttled = admission.admit("c", 10, 1);
  ASSERT_FALSE(throttled.ok());
  EXPECT_TRUE(throttled.is_transient());
}

TEST(AdmissionControllerTest, ExplicitQuotaOverridesDefault) {
  AdmissionConfig config;
  config.default_quota.bytes_per_sec = 1.0;  // default would throttle all
  AdmissionController admission(config);
  ClientQuota generous;
  generous.bytes_per_sec = 1e9;
  admission.set_quota("vip", generous);
  EXPECT_TRUE(admission.admit("vip", 1, 1'000'000).ok());
  EXPECT_TRUE(admission.admit("vip", 1, 1'000'000).ok());
  // The default-quota client's first oversized request overdraws its full
  // bucket (progress guarantee); from then on it is in deep debt.
  EXPECT_TRUE(admission.admit("anyone-else", 1, 1'000'000).ok());
  EXPECT_FALSE(admission.admit("anyone-else", 1, 1'000'000).ok());
}

TEST(AdmissionControllerTest, RetryAfterRespectsConfiguredFloor) {
  // Slow emulated time to a crawl, so the bucket barely refills between
  // the two admits: the natural hint stays near 100 bytes / 1 MB/s =
  // 100 us, under the floor.
  ScopedTimeScale scale(0.001);
  AdmissionConfig config;
  config.default_quota.bytes_per_sec = 1e6;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.admit("c", 1, 1'000'000).ok());
  auto throttled = admission.admit("c", 1, 100);
  ASSERT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.retry_after(), kMinRetryAfter);
}

TEST(AdmissionControllerTest, HotWindowReservationSeesInflightBytes) {
  AdmissionConfig config;
  config.max_hot_window_bytes = 1000;
  AdmissionController admission(config);

  ASSERT_TRUE(admission.reserve_hot(600).ok());
  // A concurrent reservation counts the in-flight 600: 600+600 > 1000.
  auto rejected = admission.reserve_hot(600);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.is_transient());
  EXPECT_GT(rejected.retry_after(), Duration::zero());

  // A failed reservation must not leak in-flight bytes: releasing the
  // first admits the second.
  admission.release_hot(600);
  EXPECT_TRUE(admission.reserve_hot(600).ok());
  admission.release_hot(600);
}

TEST(AdmissionControllerTest, OversizedBatchAdmittedOnlyWhenEmpty) {
  AdmissionConfig config;
  config.max_hot_window_bytes = 1000;
  AdmissionController admission(config);

  // Empty broker: a batch bigger than the whole cap still makes progress.
  ASSERT_TRUE(admission.reserve_hot(5000).ok());
  EXPECT_FALSE(admission.reserve_hot(1).ok());  // while it is in flight
  admission.release_hot(5000);

  // With any hot bytes on the books the oversize exemption is off.
  admission.hot_bytes_counter()->store(10);
  EXPECT_FALSE(admission.reserve_hot(5000).ok());
}

TEST(AdmissionControllerTest, ZeroCapIsUnbounded) {
  AdmissionController admission(AdmissionConfig{});
  EXPECT_TRUE(admission.reserve_hot(1ull << 40).ok());
  admission.release_hot(1ull << 40);
}

class AdmissionBrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("pe_admission_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(AdmissionBrokerTest, HotTrimKeepsTrimmedRecordsFetchable) {
  BrokerOptions options;
  options.durable_dir = dir_;
  auto broker = std::make_shared<Broker>("cloud", options);
  TopicConfig tc;
  tc.retention.hot_max_bytes = 2048;
  ASSERT_TRUE(broker->create_topic("t", tc).ok());

  constexpr int kRecords = 64;
  for (int i = 0; i < kRecords; ++i) {
    Record r;
    r.key = "k" + std::to_string(i);
    r.value = Bytes(256, 0x3c);
    std::vector<Record> batch;
    batch.push_back(std::move(r));
    ASSERT_TRUE(broker->produce("t", 0, std::move(batch)).ok());
  }
  // The in-memory deque was trimmed to the per-partition bound...
  EXPECT_LE(broker->hot_window_bytes(), 2048u);
  // ...but nothing was lost: the full log reads back from offset 0 via
  // the durable (cold) tier.
  std::uint64_t pos = 0;
  int fetched_total = 0;
  while (pos < kRecords) {
    FetchSpec spec;
    spec.offset = pos;
    spec.max_records = 16;
    spec.max_bytes = 1ull << 20;
    auto fetched = broker->fetch("t", 0, spec);
    ASSERT_TRUE(fetched.ok());
    ASSERT_FALSE(fetched.value().empty());
    for (const auto& cr : fetched.value()) {
      EXPECT_EQ(cr.record.key, "k" + std::to_string(cr.offset));
    }
    fetched_total += static_cast<int>(fetched.value().size());
    pos = fetched.value().back().offset + 1;
  }
  EXPECT_EQ(fetched_total, kRecords);
}

TEST_F(AdmissionBrokerTest, FourThreadStormNeverExceedsCap) {
  constexpr std::uint64_t kCap = 64 * 1024;
  BrokerOptions options;
  options.durable_dir = dir_;
  options.admission.max_hot_window_bytes = kCap;
  auto broker = std::make_shared<Broker>("cloud", options);
  TopicConfig tc;
  tc.partitions = 4;
  // Per-partition hot bound well under the broker-wide cap so appends
  // keep draining the window (the cap throttles, the trim frees).
  tc.retention.hot_max_bytes = kCap / 8;
  ASSERT_TRUE(broker->create_topic("t", tc).ok());

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 50;
  constexpr int kRecordsPerBatch = 8;
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> throttled{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> over_cap{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string client = "storm-" + std::to_string(t);
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<Record> batch;
        for (int r = 0; r < kRecordsPerBatch; ++r) {
          Record rec;
          rec.key = "k";
          rec.value = Bytes(512, 0x3c);
          batch.push_back(std::move(rec));
        }
        bool sent = false;
        for (int attempt = 0; attempt < 500 && !sent; ++attempt) {
          auto copy = batch;
          auto result = broker->produce(
              "t", static_cast<std::uint32_t>((t + b) % 4), std::move(copy),
              client);
          if (broker->hot_window_bytes() > kCap) over_cap.store(true);
          if (result.ok()) {
            sent = true;
            acked.fetch_add(kRecordsPerBatch);
          } else if (result.status().is_transient()) {
            throttled.fetch_add(1);
            auto wait = result.status().retry_after();
            if (wait <= Duration::zero()) wait = Duration(1ms);
            Clock::sleep_scaled(wait);
          } else {
            break;  // permanent error: counted as dropped below
          }
        }
        if (!sent) dropped.fetch_add(kRecordsPerBatch);
      }
    });
  }
  for (auto& th : threads) th.join();

  // The cap held at every observation point, and backpressure (not loss)
  // absorbed the storm: every record was eventually acked and appended.
  EXPECT_FALSE(over_cap.load());
  EXPECT_EQ(dropped.load(), 0u);
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kBatchesPerThread *
      kRecordsPerBatch;
  EXPECT_EQ(acked.load(), kTotal);
  std::uint64_t appended = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    auto end = broker->end_offset("t", p);
    ASSERT_TRUE(end.ok());
    appended += end.value();
  }
  EXPECT_EQ(appended, kTotal);
  EXPECT_LE(broker->hot_window_bytes(), kCap);
  const auto stats = broker->stats();
  EXPECT_EQ(stats.throttled, throttled.load());
}

}  // namespace
}  // namespace pe::broker
