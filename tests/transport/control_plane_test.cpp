// ControlPlane coverage: channel registration/lookup over a real
// loopback socket, the dead-producer GC state machine (stale heartbeat
// alone is NOT death; a confirmed-dead pid is), shm unlink behavior, and
// the socket produce/fetch/commit path end to end against a live Broker.
#include "transport/control_plane.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "common/clock.h"
#include "storage/crc32c.h"
#include "transport/control_client.h"
#include "transport/shm_ring.h"

namespace pe::transport {
namespace {

using namespace std::chrono_literals;

std::string unique_shm(const char* tag) {
  return std::string("/pe_cp_") + tag + "_" +
         std::to_string(static_cast<long long>(::getpid())) + "_" +
         std::to_string(
             ::testing::UnitTest::GetInstance()->random_seed());
}

class ControlPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<broker::Broker>("edge-site", "cp-test");
    ControlPlaneOptions options;
    options.heartbeat_timeout = 100ms;
    options.gc_interval = 10s;  // background GC idle; tests drive it
    plane_ = std::make_unique<ControlPlane>(broker_.get(), options);
    ASSERT_TRUE(plane_->start().ok());
  }
  void TearDown() override {
    plane_->stop();
    for (const auto& name : shm_cleanup_) (void)ShmRing::unlink(name);
  }

  ControlClient client() {
    auto c = ControlClient::connect(plane_->port());
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return std::move(c.value());
  }

  std::shared_ptr<broker::Broker> broker_;
  std::unique_ptr<ControlPlane> plane_;
  std::vector<std::string> shm_cleanup_;
};

TEST_F(ControlPlaneTest, PingAndUnknownOp) {
  auto c = client();
  EXPECT_TRUE(c.ping().ok());
  auto bad = c.request(ControlMap{{"op", "no-such-op"}});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ControlPlaneTest, RegisterLookupUnregisterLifecycle) {
  const std::string shm = unique_shm("lifecycle");
  shm_cleanup_.push_back(shm);
  auto ring = ShmRing::create(shm, 4096);
  ASSERT_TRUE(ring.ok());

  auto c = client();
  ASSERT_TRUE(c.register_ring("sensors", shm, ring.value()->capacity(),
                              "telemetry", 0)
                  .ok());
  // The channel's topic was created on demand.
  EXPECT_TRUE(broker_->has_topic("telemetry"));

  // Double registration of a live channel is refused...
  auto dup = c.register_ring("sensors", shm, 4096, "telemetry", 0);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  auto loc = c.lookup("sensors");
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc.value().shm_name, shm);
  EXPECT_EQ(loc.value().topic, "telemetry");
  EXPECT_EQ(loc.value().state, "live");
  EXPECT_EQ(loc.value().producer_pid,
            static_cast<std::uint64_t>(::getpid()));

  ASSERT_TRUE(c.unregister("sensors").ok());
  auto closed = c.lookup("sensors");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed.value().state, "closed");

  // ...but re-registration over a closed channel is allowed (producer
  // restart).
  EXPECT_TRUE(
      c.register_ring("sensors", shm, 4096, "telemetry", 0).ok());
  EXPECT_EQ(c.lookup("sensors").value().state, "live");

  EXPECT_EQ(c.lookup("missing").status().code(), StatusCode::kNotFound);
}

TEST_F(ControlPlaneTest, StaleHeartbeatAloneIsNotDeath) {
  const std::string shm = unique_shm("stalled");
  shm_cleanup_.push_back(shm);
  // This process owns the ring: the pid is alive, so no matter how stale
  // the heartbeat gets, GC must only record a miss — a producer paused
  // in a debugger is NOT dead.
  auto ring = ShmRing::create(shm, 4096);
  ASSERT_TRUE(ring.ok());
  auto c = client();
  ASSERT_TRUE(c.register_ring("stalled", shm, 4096, "telemetry", 0).ok());

  Clock::sleep_exact(150ms);  // heartbeat_timeout is 100ms
  EXPECT_EQ(plane_->run_gc_once(), 0u);
  EXPECT_EQ(c.lookup("stalled").value().state, "live");
  EXPECT_TRUE(c.dead_channels().value().empty());
}

TEST_F(ControlPlaneTest, DeadProducerIsCollectedAndRingUnlinked) {
  const std::string shm = unique_shm("victim");
  shm_cleanup_.push_back(shm);

  // A real child process creates the ring, registers it, and dies
  // without cleanup — exactly the kill -9 scenario.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto ring = ShmRing::create(shm, 4096);
    if (!ring.ok()) ::_exit(2);
    auto c = ControlClient::connect(plane_->port());
    if (!c.ok()) ::_exit(3);
    if (!c.value()
             .register_ring("victim", shm, 4096, "telemetry", 0)
             .ok()) {
      ::_exit(4);
    }
    ::_exit(0);  // dies; the ring and registration leak
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  auto c = client();
  ASSERT_EQ(c.lookup("victim").value().state, "live");

  Clock::sleep_exact(150ms);  // let the heartbeat go stale
  EXPECT_EQ(plane_->run_gc_once(), 1u);

  EXPECT_EQ(c.lookup("victim").value().state, "dead");
  auto dead = c.dead_channels();
  ASSERT_TRUE(dead.ok());
  ASSERT_EQ(dead.value().size(), 1u);
  EXPECT_EQ(dead.value()[0], "victim");
  // The shm object was unlinked: a fresh open must fail.
  EXPECT_FALSE(ShmRing::open(shm).ok());
  // GC is idempotent — the dead channel is not re-collected.
  EXPECT_EQ(plane_->run_gc_once(), 0u);
}

TEST_F(ControlPlaneTest, ClosedRingIsUnlinkedOnceProducerExits) {
  const std::string shm = unique_shm("clean");
  shm_cleanup_.push_back(shm);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto ring = ShmRing::create(shm, 4096);
    if (!ring.ok()) ::_exit(2);
    auto c = ControlClient::connect(plane_->port());
    if (!c.ok()) ::_exit(3);
    if (!c.value().register_ring("clean", shm, 4096, "telemetry", 0).ok()) {
      ::_exit(4);
    }
    ring.value()->close_producer();
    if (!c.value().unregister("clean").ok()) ::_exit(5);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Clean shutdown: not dead, but once the producer pid is gone the GC
  // reclaims the shm name so /dev/shm does not fill with corpses.
  EXPECT_EQ(plane_->run_gc_once(), 0u);
  auto c = client();
  EXPECT_EQ(c.lookup("clean").value().state, "closed");
  EXPECT_TRUE(c.dead_channels().value().empty());
  EXPECT_FALSE(ShmRing::open(shm).ok());
}

TEST_F(ControlPlaneTest, HeartbeatFramesAreAcceptedWithoutReply) {
  auto c = client();
  ASSERT_TRUE(c.heartbeat("sensors").ok());
  // The connection still serves ordered request/reply afterwards.
  EXPECT_TRUE(c.ping().ok());
}

TEST_F(ControlPlaneTest, SocketProduceFetchCommitRoundTrip) {
  auto c = client();
  ASSERT_TRUE(c.create_topic("wan", 1).ok());

  std::vector<broker::Record> batch;
  for (int i = 0; i < 5; ++i) {
    broker::Record r;
    r.key = "k" + std::to_string(i);
    r.value = Bytes(16, static_cast<std::uint8_t>(i));
    batch.push_back(std::move(r));
  }
  auto offset = c.produce("wan", 0, std::move(batch), "edge-1");
  ASSERT_TRUE(offset.ok()) << offset.status().to_string();
  EXPECT_EQ(offset.value(), 0u);
  EXPECT_EQ(c.end_offset("wan", 0).value(), 5u);

  auto fetched = c.fetch("wan", 0, /*offset=*/1, /*max_records=*/3);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  ASSERT_EQ(fetched.value().size(), 3u);
  EXPECT_EQ(fetched.value()[0].offset, 1u);
  EXPECT_EQ(fetched.value()[0].record.key, "k1");

  ASSERT_TRUE(c.commit("workers", "wan", 0, 4).ok());
  auto committed = c.committed("workers", "wan", 0);
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(committed.value().has_value());
  EXPECT_EQ(*committed.value(), 4u);

  auto none = c.committed("other-group", "wan", 0);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());

  // Fetch on an unknown topic folds the broker error back to the client.
  EXPECT_EQ(c.fetch("nope", 0, 0).status().code(), StatusCode::kNotFound);
}

// --- 'B' frames carry one record batch ---

std::vector<broker::Record> numbered_records(int n, std::size_t value_size) {
  std::vector<broker::Record> records;
  for (int i = 0; i < n; ++i) {
    broker::Record r;
    r.key = "k" + std::to_string(i);
    r.value = Bytes(value_size, static_cast<std::uint8_t>(i));
    records.push_back(std::move(r));
  }
  return records;
}

TEST_F(ControlPlaneTest, MalformedProduceBatchIsRejectedAndConnectionSurvives) {
  ASSERT_TRUE(client().create_topic("wan", 1).ok());
  ProduceBatch produce;
  produce.topic = "wan";
  produce.client_id = "edge-1";
  produce.records = numbered_records(3, 16);
  const Bytes valid = encode_produce_batch(produce);
  // Envelope: string topic | u32 partition | string client_id.
  const std::size_t batch_at = 4 + 3 + 4 + 4 + 6;
  auto reseal = [&](Bytes& payload) {  // CRC32C of the batch after byte 12
    const std::uint32_t crc = storage::crc32c(payload.data() + batch_at + 12,
                                              payload.size() - batch_at - 12);
    std::memcpy(payload.data() + batch_at + 8, &crc, sizeof(crc));
  };
  Bytes bad_crc = valid;
  bad_crc.back() ^= 0x01;
  const Bytes truncated(valid.begin(), valid.end() - 5);
  Bytes wild_count = valid;
  const std::uint32_t count = 1000;  // more records than the bytes hold
  std::memcpy(wild_count.data() + batch_at + 16, &count, sizeof(count));
  reseal(wild_count);

  auto socket = FramedSocket::connect_loopback(plane_->port(), 2s);
  ASSERT_TRUE(socket.ok()) << socket.status().to_string();
  auto produce_raw = [&](const Bytes& payload) -> Status {
    if (auto s = socket.value().send_frame(kFrameBinary, payload); !s.ok()) {
      return s;
    }
    auto reply = socket.value().recv_frame(2s);
    if (!reply.ok()) return reply.status();
    EXPECT_EQ(reply.value().type, kFrameControl);
    ControlMap map;
    if (auto s = parse_control(reply.value().payload, &map); !s.ok()) return s;
    return status_from_reply(map);
  };
  for (const auto& [what, payload] :
       {std::pair<const char*, const Bytes*>{"bad CRC", &bad_crc},
        {"truncated batch", &truncated},
        {"count larger than its bytes", &wild_count}}) {
    const Status s = produce_raw(*payload);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_EQ(broker_->end_offset("wan", 0).value(), 0u)
        << what << " appended records";
  }
  // The same connection then serves a valid produce.
  EXPECT_TRUE(produce_raw(valid).ok());
  EXPECT_EQ(broker_->end_offset("wan", 0).value(), 3u);
}

TEST_F(ControlPlaneTest, BatchValuesAliasTheirFrameBuffer) {
  auto c = client();
  ASSERT_TRUE(c.create_topic("wan", 1).ok());
  ASSERT_TRUE(c.produce("wan", 0, numbered_records(20, 64), "edge-1").ok());

  // Pointer-range check: every value lies inside one buffer, the frame
  // the socket received, and no two values overlap.
  auto expect_one_frame = [](const std::vector<broker::ConsumedRecord>& got,
                             const char* side) {
    ASSERT_EQ(got.size(), 20u) << side;
    const void* owner = got.front().record.value.shared().get();
    ASSERT_NE(owner, nullptr) << side;
    const auto* frame = static_cast<const Bytes*>(owner);
    const std::uint8_t* lo = frame->data();
    const std::uint8_t* hi = frame->data() + frame->size();
    const std::uint8_t* prev_end = lo;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const broker::Payload& v = got[i].record.value;
      EXPECT_EQ(v.shared().get(), owner) << side << " record " << i;
      EXPECT_GE(v.data(), prev_end) << side << " record " << i;
      EXPECT_LE(v.data() + v.size(), hi) << side << " record " << i;
      EXPECT_EQ(v[0], static_cast<std::uint8_t>(i)) << side << " record " << i;
      prev_end = v.data() + v.size();
    }
  };
  // The broker's hot window holds views of the produce frame it received.
  broker::FetchSpec spec;
  spec.max_records = 100;
  auto held = broker_->fetch("wan", 0, spec);
  ASSERT_TRUE(held.ok());
  expect_one_frame(held.value(), "broker");
  // The consumer's records are views of the fetch reply frame.
  auto fetched = c.fetch("wan", 0, /*offset=*/0, /*max_records=*/100);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  expect_one_frame(fetched.value(), "consumer");
  EXPECT_NE(fetched.value()[0].record.value.shared(),
            held.value()[0].record.value.shared());
}

TEST_F(ControlPlaneTest, StatsOpCountsChannelStates) {
  const std::string shm = unique_shm("stats");
  shm_cleanup_.push_back(shm);
  auto ring = ShmRing::create(shm, 4096);
  ASSERT_TRUE(ring.ok());
  auto c = client();
  ASSERT_TRUE(c.register_ring("s1", shm, 4096, "telemetry", 0).ok());

  auto reply = c.request(ControlMap{{"op", "stats"}});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().at("channels_live"), "1");
  EXPECT_EQ(reply.value().at("channels_dead"), "0");
}

}  // namespace
}  // namespace pe::transport
