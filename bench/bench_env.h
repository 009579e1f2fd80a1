// Environment knobs shared by the bench binaries. Dependency-free so
// benches that do not drive a pipeline can include it.
#pragma once

#include <cstddef>
#include <cstdlib>

namespace pe::bench {

/// Positive integer from the environment; unset, zero or garbage values
/// fall back to `fallback`.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

}  // namespace pe::bench
