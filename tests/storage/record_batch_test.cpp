#include "storage/record_batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "storage/crc32c.h"

// Counts the bytes this test binary asks operator new for, so a test can
// show that a rejection allocated nothing sized by a wild field.
namespace {
std::atomic<std::uint64_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pe::storage {
namespace {

// Field positions from the layout in record_batch.h.
constexpr std::size_t kCrcAt = 8;
constexpr std::size_t kBytesAt = 12;
constexpr std::size_t kCountAt = 16;
constexpr std::size_t kKeyLenAt = kBatchHeaderBytes + 20;
constexpr std::size_t kValueLenAt = kBatchHeaderBytes + 24;

broker::Record make_record(const std::string& key, std::size_t value_size,
                           std::uint8_t fill = 0x5a) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  r.client_timestamp_ns = 7;
  return r;
}

/// `count` records at `base`: keys "k<i>", values of 8 + 5i bytes filled
/// with i, broker timestamps 1000 + 10i.
Bytes encode_records(std::uint64_t base, int count) {
  Bytes buf;
  BatchBuilder batch(buf, base);
  for (int i = 0; i < count; ++i) {
    batch.add(make_record("k" + std::to_string(i),
                          8 + 5 * static_cast<std::size_t>(i),
                          static_cast<std::uint8_t>(i)),
              1000 + 10 * static_cast<std::uint64_t>(i));
  }
  batch.finish();
  return buf;
}

void put_u32(Bytes& buf, std::size_t at, std::uint32_t v) {
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

/// Re-seals a hand-edited batch, so only the reader's own checks stand
/// between the edit and the records.
void reseal(Bytes& buf) {
  put_u32(buf, kCrcAt, crc32c(buf.data() + kBytesAt, buf.size() - kBytesAt));
}

TEST(RecordBatch, EncodeParseRoundTrip) {
  Bytes buf;
  BatchBuilder builder(buf, 17);
  builder.add(make_record("key", 100, 0x42), 12345);
  const BatchHeader written = builder.finish();
  EXPECT_EQ(written.bytes, buf.size());

  BatchReader batch;
  ASSERT_TRUE(batch.open(buf.data(), buf.size()).ok());
  EXPECT_EQ(batch.header().base_offset, 17u);
  EXPECT_EQ(batch.header().count, 1u);
  EXPECT_EQ(batch.header().bytes, buf.size());
  broker::ConsumedRecord v;
  ASSERT_TRUE(batch.next(&v));
  EXPECT_EQ(v.offset, 17u);
  EXPECT_EQ(v.broker_timestamp_ns, 12345u);
  EXPECT_EQ(v.record.client_timestamp_ns, 7u);
  EXPECT_EQ(v.record.key, "key");
  ASSERT_EQ(v.record.value.size(), 100u);
  EXPECT_EQ(v.record.value[0], 0x42);
  EXPECT_FALSE(batch.next(&v));
}

TEST(RecordBatch, TruncationIsTorn) {
  Bytes buf;
  BatchBuilder builder(buf, 0);
  builder.add(make_record("k", 64), 1);
  builder.finish();
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    BatchReader batch;
    EXPECT_FALSE(batch.open(buf.data(), cut).ok())
        << "prefix of " << cut << " bytes parsed as a whole batch";
    BatchHeader header;
    EXPECT_FALSE(peek_batch(buf.data(), cut, &header))
        << "header peek accepted a " << cut << "-byte prefix";
  }
}

TEST(RecordBatch, BitFlipIsTorn) {
  // 64 B sits mostly in the 8-byte CRC loop; 6 400 B is a
  // durable_quorum-size record whose batch also ends in a byte tail.
  for (const std::size_t value_size : {64u, 6400u}) {
    Bytes buf;
    BatchBuilder builder(buf, 0);
    builder.add(make_record("k", value_size), 1);
    builder.finish();
    std::vector<std::size_t> flips;
    for (std::size_t i = 8; i < buf.size(); i += 13) flips.push_back(i);
    for (std::size_t i = buf.size() - 8; i < buf.size(); ++i) {
      flips.push_back(i);
    }
    for (const std::size_t i : flips) {
      Bytes corrupt = buf;
      corrupt[i] ^= 0x80;
      BatchReader batch;
      EXPECT_FALSE(batch.open(corrupt.data(), corrupt.size()).ok())
          << "bit flip at byte " << i << " of a " << value_size
          << "-byte value went undetected";
    }
  }
}

TEST(RecordBatch, MultiRecordRoundTrip) {
  const Bytes buf = encode_records(40, 6);
  BatchHeader header;
  ASSERT_TRUE(peek_batch(buf.data(), buf.size(), &header));
  EXPECT_EQ(header.base_offset, 40u);
  EXPECT_EQ(header.count, 6u);
  EXPECT_EQ(header.end_offset(), 46u);
  EXPECT_EQ(header.first_timestamp_ns, 1000u);
  EXPECT_EQ(header.max_timestamp_ns, 1050u);
  EXPECT_EQ(header.bytes, buf.size());

  BatchReader batch;
  ASSERT_TRUE(batch.open(buf.data(), buf.size()).ok());
  broker::ConsumedRecord r;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(batch.next(&r)) << i;
    EXPECT_EQ(r.offset, 40 + i);
    EXPECT_EQ(r.broker_timestamp_ns, 1000 + 10 * i);
    EXPECT_EQ(r.record.key, "k" + std::to_string(i));
    ASSERT_EQ(r.record.value.size(), 8 + 5 * i);
    EXPECT_EQ(r.record.value[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_FALSE(batch.next(&r));
}

TEST(RecordBatch, ValuesAreViewsTheOwnerKeepsAlive) {
  auto owned = std::make_shared<const Bytes>(encode_records(0, 3));
  BatchReader batch;
  ASSERT_TRUE(batch.open(owned->data(), owned->size(), owned).ok());
  broker::ConsumedRecord r;
  while (batch.next(&r)) {
    EXPECT_GE(r.record.value.data(), owned->data());
    EXPECT_LE(r.record.value.data() + r.record.value.size(),
              owned->data() + owned->size());
    EXPECT_EQ(r.record.value.shared().get(), owned.get());
  }
}

TEST(RecordBatch, EverySingleByteFlipAfterTheBaseOffsetIsRejected) {
  const Bytes buf = encode_records(9, 4);
  for (std::size_t i = 8; i < buf.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes corrupt = buf;
      corrupt[i] ^= mask;
      BatchReader batch;
      EXPECT_FALSE(batch.open(corrupt.data(), corrupt.size()).ok())
          << "byte " << i << " ^ " << int{mask} << " went undetected";
    }
  }
}

TEST(RecordBatch, RewritingTheBaseOffsetLeavesTheCrcValid) {
  const Bytes at_zero = encode_records(0, 3);
  const Bytes at_thousand = encode_records(1000, 3);
  // Only the base offset differs, so one CRC serves both placements.
  ASSERT_EQ(at_zero.size(), at_thousand.size());
  EXPECT_NE(std::memcmp(at_zero.data(), at_thousand.data(), 8), 0);
  EXPECT_EQ(std::memcmp(at_zero.data() + 8, at_thousand.data() + 8,
                        at_zero.size() - 8),
            0);

  Bytes moved = at_zero;
  const std::uint64_t base = 77;
  std::memcpy(moved.data(), &base, sizeof(base));
  BatchReader batch;
  ASSERT_TRUE(batch.open(moved.data(), moved.size()).ok());
  broker::ConsumedRecord r;
  ASSERT_TRUE(batch.next(&r));
  EXPECT_EQ(r.offset, 77u);
  ASSERT_TRUE(batch.next(&r));
  EXPECT_EQ(r.offset, 78u);
}

TEST(RecordBatch, WildCountOrLengthIsRejectedWithoutAllocating) {
  const Bytes buf = encode_records(0, 2);
  struct Edit {
    const char* what;
    std::size_t at;
  };
  for (const Edit edit : {Edit{"count", kCountAt},
                          Edit{"batch size", kBytesAt},
                          Edit{"key length", kKeyLenAt},
                          Edit{"value length", kValueLenAt}}) {
    for (const std::uint32_t wild : {0xffffffffu, 0x7fffffffu, 1000u}) {
      Bytes corrupt = buf;
      put_u32(corrupt, edit.at, wild);
      reseal(corrupt);  // a buggy encoder: the CRC vouches for the bytes
      const std::uint64_t before = g_new_bytes.load();
      BatchReader batch;
      const Status s = batch.open(corrupt.data(), corrupt.size());
      const std::uint64_t allocated = g_new_bytes.load() - before;
      EXPECT_FALSE(s.ok()) << edit.what << " = " << wild << " accepted";
      // The rejection's message is all it may allocate.
      EXPECT_LT(allocated, 1024u) << edit.what << " = " << wild;
      broker::ConsumedRecord r;
      EXPECT_FALSE(batch.next(&r)) << "a rejected batch yielded a record";
    }
  }
}

}  // namespace
}  // namespace pe::storage
