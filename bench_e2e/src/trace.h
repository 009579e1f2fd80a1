// Benchmark-side tracing: spans kept in memory around every call the
// benchmark makes into a layer of the program, written out when the run
// ends.
//
// Each span holds its name, start, end, parent and record id. Every span
// feeds exact per-name totals (count, total time, self time = duration
// minus the time its child spans cover). The spans themselves are kept as
// a systematic sample: at most kMaxSpansPerThread per thread, halved with
// a doubled stride when the buffer fills, so long runs hold bounded
// memory. Per-layer percentiles come from the kept spans.
//
// Tracing is off unless a traced phase turns it on; a ScopedSpan then
// costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace pe::bench_e2e {

class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 1u << 16;

  struct Span {
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t record = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Drops everything recorded so far and turns tracing on or off.
  static void reset(bool enabled);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  static void begin(const char* name, std::uint64_t record);
  static void end();

  /// Durations in microseconds of the kept spans named `name`.
  static std::vector<double> durations_us(const std::string& name);
  /// Exact totals over every span, by name.
  static std::map<std::string, Totals> totals();
  /// One JSON object per kept span: {"name","id","parent","record",
  /// "start_ns","end_ns"}.
  static Status write_jsonl(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t record = 0)
      : active_(Tracer::enabled()) {
    if (active_) Tracer::begin(name, record);
  }
  ~ScopedSpan() {
    if (active_) Tracer::end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool active_;
};

/// Calls `fn` inside a span named `name` and returns its result.
template <typename F>
auto traced(const char* name, std::uint64_t record, F&& fn) {
  ScopedSpan span(name, record);
  return fn();
}

}  // namespace pe::bench_e2e
