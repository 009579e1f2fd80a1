// Wall-clock access with a global emulation time-scale.
//
// All network emulation delays (WAN latency, bandwidth pacing) go through
// Clock::sleep_scaled(), so a geo-distributed benchmark can be run at e.g.
// 10x speed in CI while metrics are reported in unscaled (paper-equivalent)
// time. Compute is never scaled — only injected waits are.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace pe {

using Duration = std::chrono::nanoseconds;
using TimePoint = std::chrono::steady_clock::time_point;

class Clock {
 public:
  /// Current monotonic time.
  static TimePoint now() { return std::chrono::steady_clock::now(); }

  /// Nanoseconds since an arbitrary fixed epoch (process start order).
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now().time_since_epoch())
            .count());
  }

  /// Global emulation speed-up factor. 1.0 = real time; 10.0 means every
  /// *emulated* delay sleeps for 1/10th of its nominal duration.
  static void set_time_scale(double scale) {
    scale_x1000().store(static_cast<std::uint64_t>(scale * 1000.0),
                        std::memory_order_relaxed);
  }

  static double time_scale() {
    return static_cast<double>(scale_x1000().load(std::memory_order_relaxed)) /
           1000.0;
  }

  /// The wall deadline an *emulated* duration from now.
  static TimePoint deadline_in(Duration emulated) {
    return now() +
           std::chrono::duration_cast<Duration>(emulated / time_scale());
  }

  /// Sleeps until the wall `deadline` in slices of at most 5 ms, ending
  /// early once `stopped()` holds; false when stopped.
  template <typename Stopped>
  static bool sleep_until(TimePoint deadline, Stopped stopped) {
    while (!stopped()) {
      const Duration left = deadline - now();
      if (left <= Duration::zero()) return true;
      sleep_exact(std::min<Duration>(left, std::chrono::milliseconds(5)));
    }
    return false;
  }

  /// Sleep for an *emulated* duration: the actual sleep is d / time_scale.
  /// Sub-100us scaled sleeps spin instead, to keep pacing accurate.
  static void sleep_scaled(Duration d) {
    if (d <= Duration::zero()) return;
    const double scale = time_scale();
    auto actual = std::chrono::duration_cast<Duration>(d / scale);
    sleep_exact(actual);
  }

  /// Sleep for an exact (unscaled) duration; spins below 100us for accuracy.
  static void sleep_exact(Duration d) {
    if (d <= Duration::zero()) return;
    const auto deadline = now() + d;
    if (d > std::chrono::microseconds(100)) {
      std::this_thread::sleep_until(deadline -
                                    std::chrono::microseconds(50));
    }
    while (now() < deadline) {
      // spin for the residual to get accurate pacing
    }
  }

 private:
  static std::atomic<std::uint64_t>& scale_x1000() {
    static std::atomic<std::uint64_t> scale{1000};
    return scale;
  }
};

/// RAII override of the global time scale (restores previous value).
class ScopedTimeScale {
 public:
  explicit ScopedTimeScale(double scale) : previous_(Clock::time_scale()) {
    Clock::set_time_scale(scale);
  }
  ~ScopedTimeScale() { Clock::set_time_scale(previous_); }
  ScopedTimeScale(const ScopedTimeScale&) = delete;
  ScopedTimeScale& operator=(const ScopedTimeScale&) = delete;

 private:
  double previous_;
};

/// Stopwatch measuring elapsed wall time.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  Duration elapsed() const { return Clock::now() - start_; }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(elapsed()).count();
  }
  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  TimePoint start_;
};

}  // namespace pe
