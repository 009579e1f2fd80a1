// Byte-buffer serialization primitives.
//
// Little-endian, length-prefixed encoding used by the data codec and the
// broker record payloads. Reader returns Status on truncated input rather
// than throwing.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace pe {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of immutable bytes. Decoders take this instead of
/// `const Bytes&` so payloads backed by mmap'd storage segments (which
/// have no vector anywhere) decode without a copy.
using ByteSpan = std::span<const std::uint8_t>;

/// Appends fixed-width little-endian values and length-prefixed blobs.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void put_u8(std::uint8_t v) { out_.push_back(v); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void put_bytes(const Bytes& b) {
    put_u32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

  /// Raw doubles without a length prefix (caller knows the count).
  void put_f64_array(const double* data, std::size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    const std::size_t offset = out_.size();
    out_.resize(offset + n * sizeof(double));
    std::memcpy(out_.data() + offset, data, n * sizeof(double));
  }

 private:
  Bytes& out_;
};

/// Sequential reader over a byte buffer; all reads are bounds-checked.
/// Views the input — the buffer must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan in) : in_(in) {}
  explicit ByteReader(const Bytes& in) : in_(in.data(), in.size()) {}

  Status get_u8(std::uint8_t& v) {
    if (pos_ + 1 > in_.size()) return truncation();
    v = in_[pos_++];
    return Status::Ok();
  }

  Status get_u32(std::uint32_t& v) {
    if (pos_ + 4 > in_.size()) return truncation();
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    return Status::Ok();
  }

  Status get_u64(std::uint64_t& v) {
    if (pos_ + 8 > in_.size()) return truncation();
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    return Status::Ok();
  }

  Status get_f64(double& v) {
    std::uint64_t bits = 0;
    if (auto s = get_u64(bits); !s.ok()) return s;
    std::memcpy(&v, &bits, sizeof(v));
    return Status::Ok();
  }

  Status get_string(std::string& s) {
    std::uint32_t len = 0;
    if (auto st = get_u32(len); !st.ok()) return st;
    if (pos_ + len > in_.size()) return truncation();
    s.assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
             in_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return Status::Ok();
  }

  Status get_bytes(Bytes& b) {
    std::uint32_t len = 0;
    if (auto st = get_u32(len); !st.ok()) return st;
    if (pos_ + len > in_.size()) return truncation();
    b.assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
             in_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return Status::Ok();
  }

  Status get_f64_array(double* data, std::size_t n) {
    const std::size_t need = n * sizeof(double);
    if (pos_ + need > in_.size()) return truncation();
    if (need > 0) std::memcpy(data, in_.data() + pos_, need);
    pos_ += need;
    return Status::Ok();
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  Status truncation() const {
    return Status::OutOfRange("truncated buffer at offset " +
                              std::to_string(pos_));
  }

  ByteSpan in_;
  std::size_t pos_ = 0;
};

}  // namespace pe
