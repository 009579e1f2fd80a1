// Streaming summary statistics and percentile estimation.
//
// Histogram keeps raw samples (doubles) and computes count/mean/stddev/
// min/max and arbitrary percentiles by sorting on demand; fine for the
// sample volumes in this library (<= a few million per run).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace pe {

/// Point-in-time summary of a Histogram.
struct SummaryStats {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  std::string to_string() const;
};

class Histogram {
 public:
  Histogram() = default;

  void record(double value);
  void record_many(const std::vector<double>& values);

  std::size_t count() const;
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// q in [0,1]; linear interpolation between order statistics.
  double percentile(double q) const;
  SummaryStats summary() const;

  /// Copy of all recorded samples (unsorted, insertion order).
  std::vector<double> samples() const;

  void clear();

  /// Merge another histogram's samples into this one.
  void merge(const Histogram& other);

 private:
  /// Interpolated quantile over an already-sorted sample vector.
  static double percentile_sorted(const std::vector<double>& sorted, double q);
  double percentile_locked(double q) const PE_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<double> samples_ PE_GUARDED_BY(mutex_);
  double sum_ PE_GUARDED_BY(mutex_) = 0.0;
  double sum_sq_ PE_GUARDED_BY(mutex_) = 0.0;
  double min_ PE_GUARDED_BY(mutex_) = 0.0;
  double max_ PE_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace pe
