// CRC32C (Castagnoli) checksum, the polynomial Kafka and ext4 use for
// record framing (reflected 0x82F63B78). Two kernels compute the same
// values:
//   - SSE4.2: the `crc32` instruction over 8-byte loads, then a byte
//     tail. x86-64 only, compiled with a per-function target attribute
//     because the build flags carry no -msse4.2;
//   - table: byte-at-a-time, the portable fallback.
// crc32c() picks the SSE4.2 kernel when the CPU reports it (checked once
// per process) and the table otherwise. Header-only so the record-batch
// codec and the shm ring share one definition without a link dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pe::storage {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// Portable kernel: one table lookup per byte.
inline std::uint32_t crc32c_table(const void* data, std::size_t size,
                                  std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
/// Hardware kernel. Call only when cpu_has_sse42() is true.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; size >= 8; size -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; size > 0; --size, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

/// Whether this CPU has SSE4.2; probed on first use.
inline bool cpu_has_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace detail

/// One-shot CRC32C over a buffer. `seed` chains partial checksums:
/// crc32c(ab) == crc32c(b, crc32c(a)).
inline std::uint32_t crc32c(const void* data, std::size_t size,
                            std::uint32_t seed = 0) {
#if defined(__x86_64__)
  if (detail::cpu_has_sse42()) return detail::crc32c_sse42(data, size, seed);
#endif
  return detail::crc32c_table(data, size, seed);
}

}  // namespace pe::storage
