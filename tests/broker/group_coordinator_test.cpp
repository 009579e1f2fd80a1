#include "broker/group_coordinator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/clock.h"

namespace pe::broker {
namespace {

GroupCoordinator make_coordinator(std::uint32_t partitions = 6) {
  return GroupCoordinator([partitions](const std::string& topic) {
    return topic == "t" ? partitions : 0u;
  });
}

TEST(GroupCoordinatorTest, SingleMemberGetsAllPartitions) {
  auto gc = make_coordinator(4);
  auto a = gc.join("g", "m1", {"t"});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().partitions.size(), 4u);
  EXPECT_EQ(a.value().generation, 1u);
}

TEST(GroupCoordinatorTest, UnknownTopicRejected) {
  auto gc = make_coordinator();
  EXPECT_EQ(gc.join("g", "m1", {"nope"}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(gc.members("g").empty());
}

TEST(GroupCoordinatorTest, EmptySubscriptionRejected) {
  auto gc = make_coordinator();
  EXPECT_EQ(gc.join("g", "m1", {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GroupCoordinatorTest, RangeAssignmentSplitsEvenly) {
  auto gc = make_coordinator(6);
  ASSERT_TRUE(gc.join("g", "m1", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "m2", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "m3", {"t"}).ok());
  std::size_t total = 0;
  std::set<std::uint32_t> seen;
  for (const auto& m : {"m1", "m2", "m3"}) {
    auto a = gc.assignment("g", m);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().partitions.size(), 2u);
    for (const auto& tp : a.value().partitions) {
      EXPECT_EQ(tp.topic, "t");
      seen.insert(tp.partition);
      total += 1;
    }
  }
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(seen.size(), 6u);  // disjoint cover
}

TEST(GroupCoordinatorTest, UnevenSplitGivesExtrasToFirstMembers) {
  auto gc = make_coordinator(5);
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "b", {"t"}).ok());
  EXPECT_EQ(gc.assignment("g", "a").value().partitions.size(), 3u);
  EXPECT_EQ(gc.assignment("g", "b").value().partitions.size(), 2u);
}

TEST(GroupCoordinatorTest, MoreMembersThanPartitionsLeavesSomeIdle) {
  auto gc = make_coordinator(2);
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "b", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "c", {"t"}).ok());
  std::size_t total = 0;
  for (const auto& m : {"a", "b", "c"}) {
    auto a = gc.assignment("g", m);
    ASSERT_TRUE(a.ok());  // idle members still have an (empty) assignment
    total += a.value().partitions.size();
  }
  EXPECT_EQ(total, 2u);
}

TEST(GroupCoordinatorTest, JoinBumpsGeneration) {
  auto gc = make_coordinator();
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  EXPECT_EQ(gc.generation("g"), 1u);
  ASSERT_TRUE(gc.join("g", "b", {"t"}).ok());
  EXPECT_EQ(gc.generation("g"), 2u);
}

TEST(GroupCoordinatorTest, LeaveRebalancesRemaining) {
  auto gc = make_coordinator(4);
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "b", {"t"}).ok());
  ASSERT_TRUE(gc.leave("g", "a").ok());
  auto b = gc.assignment("g", "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().partitions.size(), 4u);
  EXPECT_EQ(gc.assignment("g", "a").status().code(), StatusCode::kNotFound);
}

TEST(GroupCoordinatorTest, LeaveUnknownMemberFails) {
  auto gc = make_coordinator();
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  EXPECT_EQ(gc.leave("g", "zz").code(), StatusCode::kNotFound);
  EXPECT_EQ(gc.leave("nope", "a").code(), StatusCode::kNotFound);
}

TEST(GroupCoordinatorTest, CommitAndFetchOffsets) {
  auto gc = make_coordinator();
  const TopicPartition tp{"t", 1};
  EXPECT_FALSE(gc.committed_offset("g", tp).has_value());
  ASSERT_TRUE(gc.commit_offset("g", tp, 42).ok());
  EXPECT_EQ(gc.committed_offset("g", tp).value(), 42u);
  ASSERT_TRUE(gc.commit_offset("g", tp, 43).ok());
  EXPECT_EQ(gc.committed_offset("g", tp).value(), 43u);
}

TEST(GroupCoordinatorTest, CommitsSurviveRebalance) {
  auto gc = make_coordinator(2);
  ASSERT_TRUE(gc.join("g", "a", {"t"}).ok());
  ASSERT_TRUE(gc.commit_offset("g", {"t", 0}, 10).ok());
  ASSERT_TRUE(gc.join("g", "b", {"t"}).ok());  // rebalance
  EXPECT_EQ(gc.committed_offset("g", {"t", 0}).value(), 10u);
}

TEST(GroupCoordinatorTest, MembersListsSortedIds) {
  auto gc = make_coordinator();
  ASSERT_TRUE(gc.join("g", "zed", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "ann", {"t"}).ok());
  const auto members = gc.members("g");
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], "ann");
  EXPECT_EQ(members[1], "zed");
}

TEST(GroupCoordinatorTest, SessionTimeoutEvictsSilentMemberExactlyOnce) {
  auto gc = make_coordinator(4);
  gc.set_session_timeout(std::chrono::milliseconds(30));
  ASSERT_TRUE(gc.join("g", "live", {"t"}).ok());
  ASSERT_TRUE(gc.join("g", "dead", {"t"}).ok());
  ASSERT_EQ(gc.generation("g"), 2u);

  // Several polling threads heartbeat the live member concurrently (each
  // heartbeat also runs the eviction scan); the silent member must be
  // evicted exactly once with exactly one rebalance, despite the races.
  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (int i = 0; i < 4; ++i) {
    pollers.emplace_back([&] {
      while (!stop.load()) {
        EXPECT_TRUE(gc.heartbeat("g", "live").ok());
        Clock::sleep_exact(std::chrono::milliseconds(1));
      }
    });
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (gc.members("g").size() > 1 && Clock::now() < deadline) {
    Clock::sleep_exact(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : pollers) t.join();

  const auto members = gc.members("g");
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], "live");
  // One eviction, one rebalance: generation moved exactly once past the
  // two joins, and the survivor now owns every partition.
  EXPECT_EQ(gc.generation("g"), 3u);
  auto a = gc.assignment("g", "live");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().partitions.size(), 4u);
  EXPECT_EQ(gc.assignment("g", "dead").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(gc.heartbeat("g", "dead").code(), StatusCode::kNotFound);
}

TEST(GroupCoordinatorTest, IndependentGroupsDoNotInterfere) {
  auto gc = make_coordinator(4);
  ASSERT_TRUE(gc.join("g1", "a", {"t"}).ok());
  ASSERT_TRUE(gc.join("g2", "a", {"t"}).ok());
  EXPECT_EQ(gc.assignment("g1", "a").value().partitions.size(), 4u);
  EXPECT_EQ(gc.assignment("g2", "a").value().partitions.size(), 4u);
  EXPECT_EQ(gc.generation("g1"), 1u);
}

// Regression coverage for the coordinator <-> registry lock-order
// inversion: join() used to resolve partition counts through the
// callback while holding the coordinator lock, which (with a
// broker-backed callback that takes the registry lock) ran against the
// registry -> coordinator order used everywhere else. join() now
// resolves all counts before locking. Under TSan (tools/check.sh thread)
// the old order is reported as a lock-order-inversion.
TEST(GroupCoordinatorLockOrderTest, JoinCallbackRunsWithoutCoordinatorLock) {
  // Stands in for the broker registry, which sits above the coordinator
  // in the broker lock hierarchy.
  Mutex registry;
  GroupCoordinator gc([&](const std::string& topic) {
    MutexLock lock(registry);
    return topic == "t" ? 4u : 0u;
  });

  // Establish the canonical registry -> coordinator edge, as the broker
  // does when it calls into the coordinator from registry paths.
  std::atomic<bool> stop{false};
  std::thread committer([&] {
    while (!stop.load()) {
      MutexLock lock(registry);
      (void)gc.commit_offset("g", {"t", 0}, 1);
    }
  });

  // Under the old implementation each join would acquire
  // coordinator -> registry and close the cycle.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(gc.join("g", "m" + std::to_string(i % 4), {"t"}).ok());
  }
  stop.store(true);
  committer.join();
  EXPECT_EQ(gc.assignment("g", "m0").value().partitions.size(), 1u);
}

}  // namespace
}  // namespace pe::broker
