#include "storage/segment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "storage/crc32c.h"

namespace pe::storage {
namespace {

namespace fs = std::filesystem;

broker::Record make_record(const std::string& key, std::size_t value_size,
                           std::uint8_t fill = 0x5a) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  r.client_timestamp_ns = 7;
  return r;
}

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pe_segment_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string seg_path() const { return (dir_ / "seg").string(); }

  /// Writes `count` records straight to a file as batches of
  /// `per_batch` records (broker timestamps 1000 + 10i), returning the raw
  /// bytes written.
  Bytes write_batches(std::uint64_t base, int count, std::size_t value_size,
                      int per_batch = 1) {
    Bytes all;
    for (int first = 0; first < count; first += per_batch) {
      BatchBuilder batch(all, base + static_cast<std::uint64_t>(first));
      for (int i = first; i < count && i < first + per_batch; ++i) {
        batch.add(make_record("k" + std::to_string(i), value_size),
                  1000 + static_cast<std::uint64_t>(i) * 10);
      }
      batch.finish();
    }
    std::ofstream out(seg_path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(all.data()),
              static_cast<std::streamsize>(all.size()));
    return all;
  }

  fs::path dir_;
};

TEST(Crc32c, KnownVectorAndSensitivity) {
  // RFC 3720 test vector: 32 zero bytes.
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  Bytes flipped = zeros;
  flipped[7] ^= 1;
  EXPECT_NE(crc32c(flipped.data(), flipped.size()), 0x8A9136AAu);
}

TEST(Crc32c, SeedChains) {
  const Bytes data{1, 2, 3, 4, 5, 6};
  const std::uint32_t whole = crc32c(data.data(), data.size());
  const std::uint32_t first = crc32c(data.data(), 3);
  EXPECT_EQ(crc32c(data.data() + 3, 3, first), whole);
}

TEST(Crc32c, KernelsAgree) {
  const char* check = "123456789";  // RFC 3720 check value
  EXPECT_EQ(detail::crc32c_table(check, 9, 0), 0xE3069283u);
#if defined(__x86_64__)
  if (!detail::cpu_has_sse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
  EXPECT_EQ(detail::crc32c_sse42(check, 9, 0), 0xE3069283u);

  // Random lengths at every start offset mod 8, so the 8-byte loop, the
  // byte tail and unaligned loads all get compared against the table.
  std::mt19937_64 rng(0xC5C32C);
  Bytes buf(9000 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng() % 9001;
    const std::uint8_t* p = buf.data() + i % 8;
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::uint32_t want = detail::crc32c_table(p, len, seed);
    ASSERT_EQ(detail::crc32c_sse42(p, len, seed), want)
        << "len " << len << " start " << i % 8;
    ASSERT_EQ(crc32c(p, len, seed), want);
    // Seeds chain across kernels in both directions.
    const std::size_t cut = rng() % (len + 1);
    ASSERT_EQ(detail::crc32c_sse42(p + cut, len - cut,
                                   detail::crc32c_table(p, cut, seed)),
              want)
        << "table then sse4.2, cut " << cut << " of " << len;
    ASSERT_EQ(detail::crc32c_table(p + cut, len - cut,
                                   detail::crc32c_sse42(p, cut, seed)),
              want)
        << "sse4.2 then table, cut " << cut << " of " << len;
  }
#else
  GTEST_SKIP() << "no SSE4.2 kernel on this architecture";
#endif
}

TEST(SegmentFileName, RoundTrip) {
  EXPECT_EQ(segment_file_name(0), "00000000000000000000.seg");
  EXPECT_EQ(segment_file_name(1234), "00000000000000001234.seg");
  std::uint64_t base = 99;
  ASSERT_TRUE(parse_segment_file_name("00000000000000001234.seg", &base));
  EXPECT_EQ(base, 1234u);
  EXPECT_FALSE(parse_segment_file_name("1234.seg", &base));
  EXPECT_FALSE(parse_segment_file_name("0000000000000000123x.seg", &base));
  EXPECT_FALSE(parse_segment_file_name("00000000000000001234.log", &base));
}

TEST_F(SegmentTest, ScanRecoversAllFrames) {
  const Bytes raw = write_batches(10, 5, 32);
  Segment segment(seg_path(), 10);
  auto torn = segment.scan();
  ASSERT_TRUE(torn.ok()) << torn.status().to_string();
  EXPECT_EQ(segment.bytes(), raw.size());
  EXPECT_EQ(torn.value(), 0u);
  EXPECT_EQ(segment.base_offset(), 10u);
  EXPECT_EQ(segment.end_offset(), 15u);
  EXPECT_EQ(segment.record_count(), 5u);
  EXPECT_EQ(segment.last_timestamp_ns(), 1040u);
}

TEST_F(SegmentTest, ScanTruncatesTornTail) {
  const Bytes raw = write_batches(0, 4, 32);
  // Append half a batch's worth of garbage: a crash mid-write.
  {
    std::ofstream out(seg_path(), std::ios::binary | std::ios::app);
    const Bytes garbage(25, 0xee);
    out.write(reinterpret_cast<const char*>(garbage.data()), 25);
  }
  Segment segment(seg_path(), 0);
  auto torn = segment.scan();
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(segment.bytes(), raw.size());
  EXPECT_EQ(torn.value(), 25u);
  EXPECT_EQ(segment.record_count(), 4u);
}

TEST_F(SegmentTest, PositionOfWalksFromSparseIndex) {
  // One-record batches of ~1 KiB => several index entries; 50 small ones
  // fit in one index interval => one entry. Seven-record batches: the
  // position is that of the batch holding the offset.
  for (const int per_batch : {1, 7}) {
    for (std::size_t value_size : {1024u, 16u}) {
      write_batches(100, 50, value_size, per_batch);
      Segment segment(seg_path(), 100);
      ASSERT_TRUE(segment.scan().ok());
      if (value_size == 1024u) {
        EXPECT_GT(segment.index().size(), 1u);
      } else {
        EXPECT_EQ(segment.index().size(), 1u);
      }
      auto mapped = segment.mapping();
      ASSERT_TRUE(mapped.ok());
      for (std::uint64_t off = 100; off < 150; ++off) {
        auto pos = segment.position_of(off);
        ASSERT_TRUE(pos.ok()) << pos.status().to_string();
        BatchReader batch;
        ASSERT_TRUE(segment.read_batch(pos.value(), &batch).ok());
        EXPECT_EQ(batch.header().base_offset,
                  off - (off - 100) % static_cast<std::uint64_t>(per_batch));
        EXPECT_LT(off, batch.header().end_offset());
      }
      EXPECT_FALSE(segment.position_of(99).ok());
      EXPECT_FALSE(segment.position_of(150).ok());
    }
  }
}

TEST_F(SegmentTest, MappingSurvivesUnlink) {
  write_batches(0, 3, 16);
  Segment segment(seg_path(), 0);
  ASSERT_TRUE(segment.scan().ok());
  auto mapped = segment.mapping();
  ASSERT_TRUE(mapped.ok());
  std::shared_ptr<MmapRegion> region = mapped.value();
  fs::remove(seg_path());
  // The mapping remains readable after the file is gone (retention
  // unlinks segments that consumers may still be reading).
  BatchReader batch;
  ASSERT_TRUE(batch.open(region->data(), region->size()).ok());
  EXPECT_EQ(batch.header().base_offset, 0u);
}

}  // namespace
}  // namespace pe::storage
