// Tests of the benchmark itself: its percentile helper, its output checker,
// and a short smoke run of every workload.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "harness.h"

namespace pe::bench_e2e {
namespace {

TEST(PercentileTest, MedianAndP99OfKnownInputs) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  EXPECT_DOUBLE_EQ(percentile(v, 0.5).value(), 500.5);
  // Rank 0.99 * 999 = 989.01 between 990 and 991.
  EXPECT_NEAR(percentile(v, 0.99).value(), 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0).value(), 1.0);
}

TEST(PercentileTest, RefusesWithFewerThanTenSamplesBeyond) {
  std::vector<double> v(999, 1.0);
  EXPECT_FALSE(percentile(v, 0.99).has_value());  // 9.99 beyond
  v.push_back(2.0);
  EXPECT_TRUE(percentile(v, 0.99).has_value());  // exactly 10 beyond
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_TRUE(std::isnan(percentile_or_nan(std::vector<double>(5, 1.0), 0.5)));
}

TEST(PercentileTest, MedianOfSmallSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(PercentileTest, BetterQuartileOfSlices) {
  const std::vector<double> slices = {9, 1, 8, 2, 7, 3, 6, 4, 5};  // 1..9
  EXPECT_DOUBLE_EQ(better_quartile(slices, true), 3.0);
  EXPECT_DOUBLE_EQ(better_quartile(slices, false), 7.0);
  EXPECT_DOUBLE_EQ(better_quartile({1.0, 2.0}, true), 1.25);
  EXPECT_TRUE(std::isnan(better_quartile({1.0, std::nan(""), 3.0}, true)));
  EXPECT_TRUE(std::isnan(better_quartile({}, false)));
}

TEST(SamplerTest, KeepsEveryStrideValue) {
  Sampler s(3);
  for (int i = 0; i < 10; ++i) s.add(i);
  EXPECT_EQ(s.seen(), 10u);
  EXPECT_EQ(s.values(), (std::vector<double>{0, 3, 6, 9}));
}

// Two streams with a pool of four inputs each.
DeliveryChecker make_checker() {
  return DeliveryChecker({{11, 12, 13, 14}, {21, 22, 23, 24}});
}

std::uint64_t sum_of(std::size_t stream, std::uint64_t seq) {
  return (stream == 0 ? 11 : 21) + seq % 4;
}

TEST(DeliveryCheckerTest, CleanDeliveryHasNoMisses) {
  DeliveryChecker c = make_checker();
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::uint64_t q = 0; q < 10; ++q) c.deliver(s, q, q, sum_of(s, q));
    c.finish(s, 10);
  }
  EXPECT_EQ(c.delivered(), 20u);
  EXPECT_EQ(c.misses(), 0u) << c.describe();
}

TEST(DeliveryCheckerTest, CatchesDroppedRecord) {
  DeliveryChecker c = make_checker();
  for (std::uint64_t q = 0; q < 10; ++q) {
    if (q != 4) c.deliver(0, q, q, sum_of(0, q));
  }
  c.finish(0, 10);
  EXPECT_EQ(c.lost(), 1u);
  EXPECT_GT(c.misses(), 0u);
}

TEST(DeliveryCheckerTest, CatchesDuplicatedRecord) {
  DeliveryChecker c = make_checker();
  for (std::uint64_t q = 0; q < 10; ++q) c.deliver(0, q, q, sum_of(0, q));
  c.deliver(0, 3, 3, sum_of(0, 3));   // delivered again, as by a re-fetch
  c.deliver(0, 10, 3, sum_of(0, 3));  // appended again at a new offset
  c.finish(0, 10);
  EXPECT_EQ(c.duplicated(), 1u);
  EXPECT_EQ(c.misplaced(), 1u);
  EXPECT_GT(c.misses(), 0u);
}

TEST(DeliveryCheckerTest, CatchesCorruptedRecord) {
  DeliveryChecker c = make_checker();
  for (std::uint64_t q = 0; q < 10; ++q) {
    c.deliver(1, q, q, q == 7 ? 999 : sum_of(1, q));
  }
  c.finish(1, 10);
  EXPECT_EQ(c.corrupted(), 1u);
  EXPECT_GT(c.misses(), 0u);
}

TEST(DeliveryCheckerTest, CatchesOffsetGap) {
  DeliveryChecker c = make_checker();
  for (std::uint64_t q = 0; q < 10; ++q) {
    c.deliver(0, q < 5 ? q : q + 1, q, sum_of(0, q));
  }
  c.finish(0, 10);
  EXPECT_EQ(c.misplaced(), 5u);
}

TEST(DeliveryCheckerTest, WildSequenceNumberIsAMissNotAnAllocation) {
  DeliveryChecker c = make_checker();
  for (std::uint64_t q = 0; q < 10; ++q) c.deliver(0, q, q, sum_of(0, q));
  // A corrupted sequence word, at its own offset and at the expected one.
  const std::uint64_t wild = (std::uint64_t{1} << 48) - 1;
  c.deliver(0, wild, wild, sum_of(0, 3));
  c.deliver(0, 10, wild, sum_of(0, 3));
  c.finish(0, 10);
  EXPECT_EQ(c.misplaced(), 2u);
  EXPECT_EQ(c.lost(), 0u);
  EXPECT_GT(c.misses(), 0u);
}

TEST(ChecksumTest, DependsOnEveryByte) {
  std::vector<std::uint8_t> a = seeded_bytes(7, 61);
  const std::uint64_t base = checksum(a.data(), a.size());
  EXPECT_EQ(base, checksum(a.data(), a.size()));
  for (std::size_t i : {0u, 9u, 60u}) {
    auto b = a;
    b[i] ^= 1;
    EXPECT_NE(base, checksum(b.data(), b.size())) << i;
  }
  EXPECT_EQ(seeded_bytes(7, 61), a);
  EXPECT_NE(seeded_bytes(8, 61), a);
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, ShortRunPassesItsOutputChecks) {
  RunOptions options;
  options.workload = GetParam();
  options.seed = 3;
  options.seconds = 3;
  options.work_dir =
      ".bench_build/selftest-work-" + std::to_string(::getpid());
  auto result = run_workload(options);
  std::filesystem::remove_all(options.work_dir);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result.value().attempted, 0u);
  // Failed operations, output-check misses and refused percentiles.
  EXPECT_EQ(result.value().failed, 0u);
  EXPECT_EQ(result.value().metrics.size(), end_to_end_metrics().size());
  for (const auto& m : result.value().metrics) {
    if (m.name == "setup_s" || m.name == "throughput_rps") {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pe::bench_e2e
