// ShmRing unit coverage: frame round trips, wrap-marker handling, CRC
// poisoning, full-ring backpressure, and — the transport contract's
// centerpiece — that consumer-side views are ZERO-COPY aliases into the
// shared mapping (pointer identity with the producer's bytes), stable
// until commit().
#include "transport/shm_ring.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace pe::transport {
namespace {

using namespace std::chrono_literals;

std::string unique_name(const char* tag) {
  return std::string("/pe_test_") + tag + "_" +
         std::to_string(static_cast<long long>(::getpid())) + "_" +
         std::to_string(
             ::testing::UnitTest::GetInstance()->random_seed());
}

Bytes pattern_payload(std::size_t size, std::uint8_t fill) {
  return Bytes(size, fill);
}

class ShmRingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!name_.empty()) (void)ShmRing::unlink(name_);
  }
  std::string name_;
};

TEST_F(ShmRingTest, RoundTripsRecordsInOrder) {
  name_ = unique_name("roundtrip");
  auto producer = ShmRing::create(name_, 64 * 1024);
  ASSERT_TRUE(producer.ok()) << producer.status().to_string();
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok()) << consumer.status().to_string();

  for (int i = 0; i < 100; ++i) {
    Bytes payload(16 + static_cast<std::size_t>(i));
    std::memset(payload.data(), i, payload.size());
    ASSERT_TRUE(producer.value()->push(payload).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto popped = consumer.value()->pop();
    ASSERT_TRUE(popped.ok()) << popped.status().to_string();
    EXPECT_EQ(popped.value().size(), 16u + static_cast<std::size_t>(i));
    EXPECT_EQ(popped.value().data()[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(consumer.value()->pop().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(producer.value()->stats().records_pushed, 100u);
  EXPECT_EQ(consumer.value()->stats().records_popped, 100u);
}

TEST_F(ShmRingTest, PopReturnsZeroCopyViewIntoTheMapping) {
  name_ = unique_name("zerocopy");
  // Capacity sized so frames recycle the same physical offsets after a
  // full lap: 8-byte header + 24-byte payload = 32 bytes per frame,
  // 1024 / 32 = 32 frames per lap.
  constexpr std::size_t kPayload = 24;
  auto producer = ShmRing::create(name_, 1024);
  ASSERT_TRUE(producer.ok());
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok());

  ASSERT_TRUE(producer.value()->push(pattern_payload(kPayload, 0xAA)).ok());
  auto first = consumer.value()->pop();
  ASSERT_TRUE(first.ok());
  const std::uint8_t* first_addr = first.value().data();
  EXPECT_EQ(first_addr[0], 0xAA);
  consumer.value()->commit();

  // Drive exactly one full lap of the data region; the next frame lands
  // back at the first frame's physical offset.
  const std::uint64_t frames_per_lap =
      producer.value()->capacity() / (ShmRing::kFrameHeaderBytes + kPayload);
  for (std::uint64_t i = 1; i < frames_per_lap; ++i) {
    ASSERT_TRUE(producer.value()->push(pattern_payload(kPayload, 0xBB)).ok());
    ASSERT_TRUE(consumer.value()->pop().ok());
    consumer.value()->commit();
  }
  ASSERT_TRUE(producer.value()->push(pattern_payload(kPayload, 0xCC)).ok());
  auto lapped = consumer.value()->pop();
  ASSERT_TRUE(lapped.ok());

  // Pointer identity: the new view reuses the EXACT address of the first
  // one — pop() hands out windows into the shared mapping, not copies.
  EXPECT_EQ(lapped.value().data(), first_addr);
  EXPECT_EQ(lapped.value().data()[0], 0xCC);
  // And the old view aliases that same memory: its content now shows the
  // producer's overwrite (we committed past it, surrendering stability).
  EXPECT_EQ(first_addr[0], 0xCC);
}

TEST_F(ShmRingTest, ViewsAreStableUntilCommit) {
  name_ = unique_name("stable");
  constexpr std::size_t kPayload = 24;
  auto producer = ShmRing::create(name_, 1024);
  ASSERT_TRUE(producer.ok());
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok());

  ASSERT_TRUE(producer.value()->push(pattern_payload(kPayload, 0x11)).ok());
  auto held = consumer.value()->pop();
  ASSERT_TRUE(held.ok());
  // NO commit: the producer must hit backpressure before it can reach
  // the held frame's bytes, so the view content cannot change.
  int pushed = 0;
  while (producer.value()->push(pattern_payload(kPayload, 0x22)).ok()) {
    ++pushed;
  }
  EXPECT_GT(pushed, 0);
  EXPECT_EQ(held.value().data()[0], 0x11);
  EXPECT_GE(producer.value()->stats().full_waits, 1u);
}

TEST_F(ShmRingTest, WrapMarkerKeepsFramesContiguous) {
  name_ = unique_name("wrap");
  auto producer = ShmRing::create(name_, 1024);
  ASSERT_TRUE(producer.ok());
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok());

  // 100-byte payloads do not divide the region evenly, forcing wrap
  // markers; every popped view must still be contiguous and intact.
  for (int lap = 0; lap < 50; ++lap) {
    Bytes payload(100);
    std::memset(payload.data(), lap, payload.size());
    ASSERT_TRUE(producer.value()->push(payload, 100ms).ok());
    auto popped = consumer.value()->pop();
    ASSERT_TRUE(popped.ok()) << "lap " << lap;
    ASSERT_EQ(popped.value().size(), 100u);
    for (std::size_t b = 0; b < 100; ++b) {
      ASSERT_EQ(popped.value().data()[b], static_cast<std::uint8_t>(lap));
    }
    consumer.value()->commit();
  }
  EXPECT_GE(producer.value()->stats().wraps, 1u);
  EXPECT_EQ(consumer.value()->stats().crc_errors, 0u);
}

TEST_F(ShmRingTest, CrcMismatchPoisonsTheFrame) {
  // Lengths below, at and around the CRC kernel's 8-byte step, each
  // corrupted at its first, middle and last byte.
  for (const std::size_t len : {1u, 7u, 64u, 100u}) {
    for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
      SCOPED_TRACE("len " + std::to_string(len) + " flip at " +
                   std::to_string(at));
      name_ = unique_name("crc");
      auto producer = ShmRing::create(name_, 4096);
      ASSERT_TRUE(producer.ok());
      auto consumer = ShmRing::open(name_);
      ASSERT_TRUE(consumer.ok());

      ASSERT_TRUE(producer.value()->push(pattern_payload(len, 0x5A)).ok());
      auto peek = consumer.value()->pop();
      ASSERT_TRUE(peek.ok());
      // Corrupt the payload THROUGH the zero-copy view (it aliases shared
      // memory, so this scribbles on the actual ring bytes)...
      const_cast<std::uint8_t*>(peek.value().data())[at] ^= 0xFF;

      // ...then re-open a fresh consumer at position zero: it must detect
      // the mismatch and refuse the frame.
      auto fresh = ShmRing::open(name_);
      ASSERT_TRUE(fresh.ok());
      auto corrupted = fresh.value()->pop();
      EXPECT_FALSE(corrupted.ok());
      EXPECT_EQ(corrupted.status().code(), StatusCode::kInternal);
      EXPECT_EQ(fresh.value()->stats().crc_errors, 1u);
      ASSERT_TRUE(ShmRing::unlink(name_).ok());
      name_.clear();
    }
  }
}

TEST_F(ShmRingTest, FullRingPushTimesOutTransiently) {
  name_ = unique_name("full");
  auto producer = ShmRing::create(name_, 1024);
  ASSERT_TRUE(producer.ok());

  while (producer.value()->push(pattern_payload(200, 0x01)).ok()) {
  }
  auto status = producer.value()->push(pattern_payload(200, 0x01), 20ms);
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(status.is_transient());  // backpressure, not loss

  // Oversized payloads are a permanent error, not backpressure.
  auto oversized = producer.value()->push(pattern_payload(2048, 0x01));
  EXPECT_EQ(oversized.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(oversized.is_transient());
}

TEST_F(ShmRingTest, CloseAndDrainSignalsEndOfStream) {
  name_ = unique_name("close");
  auto producer = ShmRing::create(name_, 4096);
  ASSERT_TRUE(producer.ok());
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok());

  ASSERT_TRUE(producer.value()->push(pattern_payload(32, 0x07)).ok());
  producer.value()->close_producer();
  producer.value()->close_producer();  // idempotent

  EXPECT_FALSE(consumer.value()->drained_and_closed());  // 1 record left
  ASSERT_TRUE(consumer.value()->pop().ok());
  consumer.value()->commit();
  EXPECT_TRUE(consumer.value()->drained_and_closed());
}

TEST_F(ShmRingTest, MonitorSeesHeartbeatAgeAndBacklog) {
  name_ = unique_name("monitor");
  auto producer = ShmRing::create(name_, 4096);
  ASSERT_TRUE(producer.ok());
  auto monitor = ShmRing::open_monitor(name_);
  ASSERT_TRUE(monitor.ok());

  producer.value()->heartbeat();
  EXPECT_LT(monitor.value()->heartbeat_age_ns(), 1'000'000'000ull);
  EXPECT_EQ(monitor.value()->producer_pid(),
            static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ(monitor.value()->backlog_bytes(), 0u);
  ASSERT_TRUE(producer.value()->push(pattern_payload(32, 0x01)).ok());
  EXPECT_GT(monitor.value()->backlog_bytes(), 0u);
  EXPECT_FALSE(monitor.value()->producer_closed());
  producer.value()->close_producer();
  EXPECT_TRUE(monitor.value()->producer_closed());
}

TEST_F(ShmRingTest, SpscStressThreadsMoveEveryRecord) {
  name_ = unique_name("stress");
  constexpr std::uint64_t kRecords = 50'000;
  auto producer = ShmRing::create(name_, 64 * 1024);
  ASSERT_TRUE(producer.ok());
  auto consumer = ShmRing::open(name_);
  ASSERT_TRUE(consumer.ok());

  std::atomic<bool> fail{false};
  std::thread pusher([&] {
    Bytes payload(64);
    for (std::uint64_t seq = 0; seq < kRecords; ++seq) {
      std::memcpy(payload.data(), &seq, sizeof(seq));
      while (true) {
        auto s = producer.value()->push(payload, 100ms);
        if (s.ok()) break;
        if (!s.is_transient()) {
          fail.store(true);
          return;
        }
      }
    }
    producer.value()->close_producer();
  });

  std::uint64_t consumed = 0;
  bool dense = true;
  while (true) {
    auto popped = consumer.value()->pop();
    if (popped.ok()) {
      std::uint64_t seq = 0;
      std::memcpy(&seq, popped.value().data(), sizeof(seq));
      if (seq != consumed) dense = false;
      consumed += 1;
      if (consumed % 256 == 0) consumer.value()->commit();
      continue;
    }
    consumer.value()->commit();
    if (popped.status().code() != StatusCode::kNotFound) {
      fail.store(true);
      break;
    }
    if (consumer.value()->drained_and_closed()) break;
    std::this_thread::yield();
  }
  pusher.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(dense);
  EXPECT_EQ(consumed, kRecords);
}

}  // namespace
}  // namespace pe::transport
