// Concurrent fan-out over a single partition: one producer appends while
// four independent consumer groups poll the same data. Exercises the
// zero-copy read path under contention — run under PE_SANITIZE=thread to
// prove the shared-payload handover is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "network/fabric.h"

namespace pe::broker {
namespace {

constexpr int kGroups = 4;
constexpr int kRecords = 200;

struct SeenRecord {
  std::uint64_t offset;
  std::string key;
  std::size_t size;
  std::uint8_t first_byte;
  // Address of the payload buffer — identical across groups iff the
  // broker hands out shared views instead of copies.
  const std::uint8_t* data;
};

TEST(FanOutTest, FourGroupsSeeIdenticalSharedRecordsConcurrently) {
  auto fabric = std::make_shared<net::Fabric>();
  ASSERT_TRUE(fabric->add_site({.id = "s"}).ok());
  auto broker = std::make_shared<Broker>("s");
  ASSERT_TRUE(
      broker->create_topic("fan", TopicConfig{.partitions = 1}).ok());

  // Producer runs concurrently with the consumers so fetch races against
  // append, not just against other fetches.
  std::thread producer_thread([&] {
    Producer producer(broker, fabric, "s");
    for (int i = 0; i < kRecords; ++i) {
      Record r;
      r.key = "k" + std::to_string(i);
      r.value = Bytes(64 + static_cast<std::size_t>(i % 7),
                      static_cast<std::uint8_t>(i & 0xff));
      ASSERT_TRUE(producer.send("fan", 0, std::move(r)).ok());
    }
  });

  std::vector<std::vector<SeenRecord>> per_group(kGroups);
  std::atomic<int> failures{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    consumers.emplace_back([&, g] {
      Consumer consumer(broker, fabric, "s", "fan-g" + std::to_string(g));
      if (!consumer.assign({{"fan", 0}}).ok()) {
        failures.fetch_add(1);
        return;
      }
      auto& seen = per_group[static_cast<std::size_t>(g)];
      const auto deadline = Clock::now() + std::chrono::seconds(20);
      while (seen.size() < static_cast<std::size_t>(kRecords) &&
             Clock::now() < deadline) {
        for (const auto& r : consumer.poll(std::chrono::milliseconds(50))) {
          seen.push_back({r.offset, r.record.key, r.record.value.size(),
                          r.record.value.empty() ? std::uint8_t{0}
                                                 : r.record.value[0],
                          r.record.value.data()});
        }
      }
    });
  }
  producer_thread.join();
  for (auto& t : consumers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every group independently read the full partition in order.
  for (int g = 0; g < kGroups; ++g) {
    const auto& seen = per_group[static_cast<std::size_t>(g)];
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRecords))
        << "group " << g;
    for (int i = 0; i < kRecords; ++i) {
      const auto& r = seen[static_cast<std::size_t>(i)];
      EXPECT_EQ(r.offset, static_cast<std::uint64_t>(i)) << "group " << g;
      EXPECT_EQ(r.key, "k" + std::to_string(i)) << "group " << g;
      EXPECT_EQ(r.size, 64 + static_cast<std::size_t>(i % 7))
          << "group " << g;
      EXPECT_EQ(r.first_byte, static_cast<std::uint8_t>(i & 0xff))
          << "group " << g;
      // Zero-copy: all groups observe the very buffer stored at append
      // time, not per-fetch copies.
      EXPECT_EQ(r.data, per_group[0][static_cast<std::size_t>(i)].data)
          << "group " << g << " record " << i;
    }
  }
}

}  // namespace
}  // namespace pe::broker
