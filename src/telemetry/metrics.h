// MetricsRegistry: named counters, gauges, and histograms.
//
// Components register metrics lazily by name ("broker.bytes_in",
// "pipeline.msgs_processed", ...); reports dump everything. Thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"

namespace pe::tel {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  /// Lazily creates on first use; returned references remain valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted snapshots for reporting.
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, SummaryStats> histograms() const;

  /// One line per metric, "name value" / histogram summaries.
  std::string to_string() const;

  /// Process-wide default registry.
  static MetricsRegistry& global();

 private:
  // Registry lock guards the maps only; Counter/Gauge are lock-free and
  // Histogram has its own leaf mutex (histograms() reads summaries while
  // holding this, a one-directional Registry -> Histogram order).
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PE_GUARDED_BY(mutex_);
};

}  // namespace pe::tel
