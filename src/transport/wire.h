// Universal frame vocabulary + control/data payload codecs for the
// transport layer.
//
// Every frame on a transport socket is:
//
//   1 ASCII type byte | u32 length (LE) | payload[length]
//
// following the universal-framing table (DESIGN.md §12):
//
//   'C' (0x43)  control — flat JSON object ({"op":"register", ...})
//   'B' (0x42)  binary data — an envelope plus one record batch (below)
//   'H' (0x48)  heartbeat — payload is the channel name
//
// Unknown type bytes are logged and dropped by receivers, so new types
// can be added without breaking old peers.
//
// Control payloads are *flat* JSON objects: string keys, values that are
// strings, numbers, or booleans — parsed into a string->string map. That
// is deliberately all the structure the control plane needs (pylabhub's
// broker protocol is the same shape), and it keeps the parser ~100 lines
// with no dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "broker/record.h"
#include "common/serialize.h"
#include "common/status.h"

namespace pe::transport {

// Frame type bytes (the universal-framing table).
inline constexpr char kFrameControl = 'C';
inline constexpr char kFrameBinary = 'B';
inline constexpr char kFrameHeartbeat = 'H';

/// Flat control message: {"op":"lookup","channel":"sensors"}.
using ControlMap = std::map<std::string, std::string>;

/// Serializes a flat map as a JSON object (keys sorted — map order).
/// Values are emitted as JSON strings with escaping; parse_control
/// accepts both strings and bare numbers/booleans, so the round trip is
/// shape-insensitive.
Bytes encode_control(const ControlMap& msg);

/// Parses a flat JSON object. Nested objects/arrays are rejected
/// (INVALID_ARGUMENT) — control messages are flat by contract. Number,
/// boolean, and null values are stored as their literal text.
Status parse_control(ByteSpan payload, ControlMap* out);

/// Fetches a required key; INVALID_ARGUMENT when missing.
Status require_field(const ControlMap& msg, const std::string& key,
                     std::string* out);
Status require_u64(const ControlMap& msg, const std::string& key,
                   std::uint64_t* out);

// --- status <-> control-map mapping (error replies) ---

/// Encodes a failure as reply fields: {"error": message, "code": "...",
/// "retry_after_ns": "..."} (retry hint only when the status carries one).
void status_to_reply(const Status& status, ControlMap* reply);

/// Reconstructs a Status from an error reply; OK when the reply carries
/// no "error" key. Throttle replies round-trip their retry-after hint.
Status status_from_reply(const ControlMap& reply);

// --- 'B' frames: an envelope, then one record batch ---
// The batch is the segment-file format (storage/record_batch.h), validated
// whole on decode; decoded values are views of the received payload.

/// Produce request payload:
///   string topic | u32 partition | string client_id | batch
struct ProduceBatch {
  std::string topic;
  std::uint32_t partition = 0;
  std::string client_id;
  std::vector<broker::Record> records;
};

Bytes encode_produce_batch(const ProduceBatch& batch);
Status decode_produce_batch(const broker::Payload& payload, ProduceBatch* out);

/// Fetch reply payload:
///   string topic | u32 partition | batch
/// `records` are a fetch result: consecutive offsets of one partition.
Bytes encode_fetch_batch(const std::string& topic, std::uint32_t partition,
                         const std::vector<broker::ConsumedRecord>& records);
Status decode_fetch_batch(const broker::Payload& payload,
                          std::vector<broker::ConsumedRecord>* out);

}  // namespace pe::transport
