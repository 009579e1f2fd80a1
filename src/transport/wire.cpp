#include "transport/wire.h"

#include <cctype>
#include <charconv>

#include "storage/record_batch.h"

namespace pe::transport {
namespace {

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

struct JsonCursor {
  const char* p;
  const char* end;

  bool eof() const { return p >= end; }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  Status fail(const std::string& what) const {
    return Status::InvalidArgument("control JSON: " + what);
  }

  Status parse_string(std::string* out) {
    if (eof() || *p != '"') return fail("expected string");
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (eof()) return fail("truncated escape");
        char e = *p++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (end - p < 4) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = *p++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Control messages are ASCII in practice; encode the low byte.
            out->push_back(static_cast<char>(code & 0xFF));
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    if (eof()) return fail("unterminated string");
    ++p;  // closing quote
    return Status::Ok();
  }

  /// Numbers / booleans / null stored as literal text.
  Status parse_literal(std::string* out) {
    const char* start = p;
    while (p < end && (std::isalnum(static_cast<unsigned char>(*p)) ||
                       *p == '-' || *p == '+' || *p == '.')) {
      ++p;
    }
    if (p == start) return fail("expected value");
    out->assign(start, p);
    return Status::Ok();
  }
};

/// Full read of the batch that makes up the rest of a 'B' payload from
/// byte `at` on; its values are views of the payload.
Status open_batch(const broker::Payload& payload, std::size_t at,
                  storage::BatchReader* batch) {
  Status s = batch->open(payload.data() + at, payload.size() - at,
                         payload.shared());
  if (s.ok() && batch->header().bytes != payload.size() - at) {
    s = Status::InvalidArgument("trailing bytes after the record batch");
  }
  return s;
}

}  // namespace

Bytes encode_control(const ControlMap& msg) {
  std::string json = "{";
  bool first = true;
  for (const auto& [key, value] : msg) {
    if (!first) json.push_back(',');
    first = false;
    append_json_string(json, key);
    json.push_back(':');
    append_json_string(json, value);
  }
  json.push_back('}');
  return Bytes(json.begin(), json.end());
}

Status parse_control(ByteSpan payload, ControlMap* out) {
  out->clear();
  JsonCursor cur{reinterpret_cast<const char*>(payload.data()),
                 reinterpret_cast<const char*>(payload.data()) + payload.size()};
  cur.skip_ws();
  if (cur.eof() || *cur.p != '{') return cur.fail("expected object");
  ++cur.p;
  cur.skip_ws();
  if (!cur.eof() && *cur.p == '}') {
    ++cur.p;
    return Status::Ok();
  }
  while (true) {
    cur.skip_ws();
    std::string key;
    if (auto s = cur.parse_string(&key); !s.ok()) return s;
    cur.skip_ws();
    if (cur.eof() || *cur.p != ':') return cur.fail("expected ':'");
    ++cur.p;
    cur.skip_ws();
    std::string value;
    if (cur.eof()) return cur.fail("truncated value");
    if (*cur.p == '"') {
      if (auto s = cur.parse_string(&value); !s.ok()) return s;
    } else if (*cur.p == '{' || *cur.p == '[') {
      return cur.fail("nested values not allowed (flat map contract)");
    } else {
      if (auto s = cur.parse_literal(&value); !s.ok()) return s;
    }
    (*out)[key] = std::move(value);
    cur.skip_ws();
    if (cur.eof()) return cur.fail("unterminated object");
    if (*cur.p == ',') {
      ++cur.p;
      continue;
    }
    if (*cur.p == '}') {
      ++cur.p;
      return Status::Ok();
    }
    return cur.fail("expected ',' or '}'");
  }
}

Status require_field(const ControlMap& msg, const std::string& key,
                     std::string* out) {
  auto it = msg.find(key);
  if (it == msg.end()) {
    return Status::InvalidArgument("control message missing field '" + key + "'");
  }
  *out = it->second;
  return Status::Ok();
}

Status require_u64(const ControlMap& msg, const std::string& key,
                   std::uint64_t* out) {
  std::string text;
  if (auto s = require_field(msg, key, &text); !s.ok()) return s;
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("control field '" + key +
                                   "' is not a u64: " + text);
  }
  *out = v;
  return Status::Ok();
}

void status_to_reply(const Status& status, ControlMap* reply) {
  if (status.ok()) return;
  (*reply)["error"] = status.message();
  (*reply)["code"] = std::string(pe::to_string(status.code()));
  if (status.retry_after() > std::chrono::nanoseconds::zero()) {
    (*reply)["retry_after_ns"] =
        std::to_string(status.retry_after().count());
  }
}

Status status_from_reply(const ControlMap& reply) {
  auto err = reply.find("error");
  if (err == reply.end()) return Status::Ok();
  StatusCode code = StatusCode::kInternal;
  if (auto it = reply.find("code"); it != reply.end()) {
    for (int c = 0; c <= static_cast<int>(StatusCode::kNotLeader); ++c) {
      if (pe::to_string(static_cast<StatusCode>(c)) == it->second) {
        code = static_cast<StatusCode>(c);
        break;
      }
    }
  }
  if (auto it = reply.find("retry_after_ns"); it != reply.end()) {
    std::uint64_t ns = 0;
    std::from_chars(it->second.data(), it->second.data() + it->second.size(), ns);
    if (code == StatusCode::kResourceExhausted && ns > 0) {
      return Status::Throttled(err->second, std::chrono::nanoseconds(ns));
    }
  }
  return Status{code, err->second};
}

Bytes encode_produce_batch(const ProduceBatch& batch) {
  std::size_t bytes = 12 + batch.topic.size() + batch.client_id.size() +
                      storage::kBatchHeaderBytes;
  for (const auto& r : batch.records) bytes += storage::batch_record_bytes(r);
  Bytes out;
  out.reserve(bytes);
  ByteWriter w(out);
  w.put_string(batch.topic);
  w.put_u32(batch.partition);
  w.put_string(batch.client_id);
  storage::BatchBuilder records(out, 0);
  for (const auto& record : batch.records) records.add(record, 0);
  records.finish();
  return out;
}

Status decode_produce_batch(const broker::Payload& payload,
                            ProduceBatch* out) {
  ByteReader r(payload.span());
  if (auto s = r.get_string(out->topic); !s.ok()) return s;
  if (auto s = r.get_u32(out->partition); !s.ok()) return s;
  if (auto s = r.get_string(out->client_id); !s.ok()) return s;
  storage::BatchReader batch;
  if (auto s = open_batch(payload, r.position(), &batch); !s.ok()) return s;
  out->records.clear();
  out->records.reserve(batch.header().count);
  broker::ConsumedRecord cr;
  while (batch.next(&cr)) out->records.push_back(std::move(cr.record));
  return Status::Ok();
}

Bytes encode_fetch_batch(const std::string& topic, std::uint32_t partition,
                         const std::vector<broker::ConsumedRecord>& records) {
  std::size_t bytes = 8 + topic.size() + storage::kBatchHeaderBytes;
  for (const auto& r : records) bytes += storage::batch_record_bytes(r.record);
  Bytes out;
  out.reserve(bytes);
  ByteWriter w(out);
  w.put_string(topic);
  w.put_u32(partition);
  storage::BatchBuilder batch(out,
                              records.empty() ? 0 : records.front().offset);
  for (const auto& cr : records) batch.add(cr.record, cr.broker_timestamp_ns);
  batch.finish();
  return out;
}

Status decode_fetch_batch(const broker::Payload& payload,
                          std::vector<broker::ConsumedRecord>* out) {
  ByteReader r(payload.span());
  std::string topic;
  std::uint32_t partition = 0;
  if (auto s = r.get_string(topic); !s.ok()) return s;
  if (auto s = r.get_u32(partition); !s.ok()) return s;
  storage::BatchReader batch;
  if (auto s = open_batch(payload, r.position(), &batch); !s.ok()) return s;
  out->clear();
  out->resize(batch.header().count);
  for (auto& cr : *out) {
    cr.topic = topic;
    cr.partition = partition;
    batch.next(&cr);
  }
  return Status::Ok();
}

}  // namespace pe::transport
