// FramedSocket coverage: frame round trips over real loopback TCP, the
// transient error model (timeout vs. refusal vs. EOF), malformed-frame
// rejection, and wire.h codec round trips.
#include "transport/framed_socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "transport/wire.h"

namespace pe::transport {
namespace {

using namespace std::chrono_literals;

struct Pair {
  FramedSocket client;
  FramedSocket server;
};

Pair make_pair(FramedListener& listener) {
  auto client = FramedSocket::connect_loopback(listener.port(), 1s);
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  auto server = listener.accept(1s);
  EXPECT_TRUE(server.ok()) << server.status().to_string();
  return Pair{std::move(client.value()), std::move(server.value())};
}

TEST(FramedSocketTest, RoundTripsTypedFrames) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto pair = make_pair(listener.value());

  const Bytes payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(pair.client.send_frame(kFrameBinary, payload).ok());
  auto frame = pair.server.recv_frame(1s);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().type, kFrameBinary);
  ASSERT_EQ(frame.value().payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(frame.value().payload.data(), payload.data(),
                        payload.size()),
            0);

  // Empty payloads are legal frames (heartbeats may carry none).
  ASSERT_TRUE(pair.server.send_frame(kFrameHeartbeat, Bytes{}).ok());
  auto hb = pair.client.recv_frame(1s);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(hb.value().type, kFrameHeartbeat);
  EXPECT_EQ(hb.value().payload.size(), 0u);
}

TEST(FramedSocketTest, LargeFrameCrossesManySendBuffers) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto pair = make_pair(listener.value());
  // A small send buffer makes the one sendmsg of header + payload drain
  // through many kernel refills while the peer reads.
  int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  Bytes payload(3u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 13));
  }
  Result<Frame> frame = Status::Internal("not received");
  std::thread reader([&] { frame = pair.server.recv_frame(10s); });
  const Status sent = pair.client.send_frame(kFrameBinary, payload);
  reader.join();
  ASSERT_TRUE(sent.ok()) << sent.to_string();
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().type, kFrameBinary);
  EXPECT_TRUE(frame.value().payload == payload);
}

TEST(FramedSocketTest, RecvTimesOutTransiently) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto pair = make_pair(listener.value());

  auto frame = pair.server.recv_frame(50ms);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(frame.status().is_transient());
}

TEST(FramedSocketTest, ConnectionRefusedIsUnavailable) {
  // Bind-then-close guarantees a port nobody is listening on.
  std::uint16_t dead_port = 0;
  {
    auto listener = FramedListener::listen_loopback();
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }
  auto socket = FramedSocket::connect_loopback(dead_port, 1s);
  EXPECT_FALSE(socket.ok());
  EXPECT_EQ(socket.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(socket.status().is_transient());
}

TEST(FramedSocketTest, PeerCloseSurfacesAsUnavailable) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto pair = make_pair(listener.value());

  pair.client.close();
  auto frame = pair.server.recv_frame(1s);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FramedSocketTest, OversizedLengthIsRejectedAsMalformed) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto pair = make_pair(listener.value());

  // Hand-craft a header announcing a body over the 64 MiB bound.
  std::uint8_t header[5];
  header[0] = static_cast<std::uint8_t>(kFrameBinary);
  const std::uint32_t huge = FramedSocket::kMaxFrameBytes + 1;
  std::memcpy(header + 1, &huge, sizeof(huge));
  ASSERT_EQ(::send(pair.client.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  auto frame = pair.server.recv_frame(1s);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(frame.status().is_transient());
}

TEST(FramedSocketTest, ListenerAcceptTimesOutThenClosesUnavailable) {
  auto listener = FramedListener::listen_loopback();
  ASSERT_TRUE(listener.ok());
  auto none = listener.value().accept(50ms);
  EXPECT_EQ(none.status().code(), StatusCode::kTimeout);
  listener.value().close();
  auto closed = listener.value().accept(50ms);
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
}

// --- wire.h codecs ---

TEST(WireTest, ControlMapRoundTripsWithEscapes) {
  ControlMap msg{{"op", "register"},
                 {"channel", "a\"b\\c\n"},
                 {"capacity", "4096"}};
  auto encoded = encode_control(msg);
  ControlMap decoded;
  ASSERT_TRUE(parse_control(encoded, &decoded).ok());
  EXPECT_EQ(decoded, msg);
}

TEST(WireTest, ParseControlRejectsNestedStructure) {
  const std::string nested = R"({"op":"x","inner":{"a":1}})";
  ControlMap out;
  auto status = parse_control(
      ByteSpan(reinterpret_cast<const std::uint8_t*>(nested.data()),
               nested.size()),
      &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, StatusRoundTripsThroughErrorReply) {
  ControlMap reply;
  status_to_reply(Status::Throttled("slow down", 250ms), &reply);
  auto back = status_from_reply(reply);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back.retry_after(), 250ms);
  EXPECT_TRUE(back.is_transient());

  ControlMap ok_reply{{"ok", "1"}};
  EXPECT_TRUE(status_from_reply(ok_reply).ok());
}

TEST(WireTest, ProduceAndFetchBatchesRoundTrip) {
  ProduceBatch batch;
  batch.topic = "telemetry";
  batch.partition = 3;
  batch.client_id = "edge-7";
  for (int i = 0; i < 4; ++i) {
    broker::Record r;
    r.key = "k" + std::to_string(i);
    r.client_timestamp_ns = 1000u + static_cast<std::uint64_t>(i);
    r.value = Bytes(static_cast<std::size_t>(8 + i), std::uint8_t(i));
    batch.records.push_back(std::move(r));
  }
  auto encoded = encode_produce_batch(batch);
  ProduceBatch decoded;
  ASSERT_TRUE(decode_produce_batch(encoded, &decoded).ok());
  EXPECT_EQ(decoded.topic, batch.topic);
  EXPECT_EQ(decoded.partition, batch.partition);
  EXPECT_EQ(decoded.client_id, batch.client_id);
  ASSERT_EQ(decoded.records.size(), 4u);
  EXPECT_EQ(decoded.records[2].key, "k2");
  EXPECT_EQ(decoded.records[2].value.size(), 10u);

  std::vector<broker::ConsumedRecord> consumed;
  for (int i = 0; i < 3; ++i) {
    broker::ConsumedRecord cr;
    cr.topic = "telemetry";
    cr.partition = 3;
    cr.offset = 40u + static_cast<std::uint64_t>(i);
    cr.broker_timestamp_ns = 2000;
    cr.record.key = "k";
    cr.record.value = Bytes(4, 0x9);
    consumed.push_back(std::move(cr));
  }
  auto fetch_bytes = encode_fetch_batch("telemetry", 3, consumed);
  std::vector<broker::ConsumedRecord> fetched;
  ASSERT_TRUE(decode_fetch_batch(fetch_bytes, &fetched).ok());
  ASSERT_EQ(fetched.size(), 3u);
  EXPECT_EQ(fetched[1].offset, 41u);
  EXPECT_EQ(fetched[1].topic, "telemetry");
  EXPECT_EQ(fetched[1].record.value.size(), 4u);
}

}  // namespace
}  // namespace pe::transport
