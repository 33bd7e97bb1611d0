// Copyright 2026 The densest Authors.
// Simple accumulating histogram / summary statistics, used by the MapReduce
// cost model and the benchmark harness to report distributions.

#ifndef DENSEST_COMMON_HISTOGRAM_H_
#define DENSEST_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace densest {

/// \brief Streaming summary of a sequence of doubles: count, mean, min, max,
/// and approximate quantiles (exact for <= 4096 samples, reservoir beyond).
class Histogram {
 public:
  explicit Histogram(size_t reservoir_capacity = 4096);

  /// Records one observation.
  void Add(double value);

  /// Number of observations recorded.
  uint64_t count() const { return count_; }
  /// Mean of all observations (0 if empty).
  double Mean() const;
  /// Minimum observation (+inf if empty).
  double Min() const { return min_; }
  /// Maximum observation (-inf if empty).
  double Max() const { return max_; }
  /// Sum of all observations.
  double Sum() const { return sum_; }
  /// Quantile in [0,1] over the retained sample (exact when all samples
  /// were retained). Returns 0 for an empty histogram.
  double Quantile(double q) const;

  /// One-line rendering: "count=… mean=… min=… p50=… p99=… max=…".
  std::string ToString() const;

 private:
  size_t capacity_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_;
  double max_;
  std::vector<double> sample_;
  uint64_t rng_state_;
};

}  // namespace densest

#endif  // DENSEST_COMMON_HISTOGRAM_H_
