// Unit tests for obs::Histogram, the one histogram type: its sample
// statistics, the quantile bound of its log-linear buckets, and the
// bucket bounds themselves.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace densest::obs {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  const Histogram h;
  const HistogramSample s = h.Sample();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Observe(42.0);
  const HistogramSample s = h.Sample();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.Mean(), 42.0);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
  // 42 lies in the bucket (40, 42]; the quantile is clamped to [min, max].
  EXPECT_EQ(s.Quantile(0.0), 42.0);
  EXPECT_EQ(s.Quantile(1.0), 42.0);
}

TEST(HistogramTest, MeanMinMaxSum) {
  Histogram h;
  for (double x : {1.0, 2.0, 3.0, 4.0}) h.Observe(x);
  const HistogramSample s = h.Sample();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
}

TEST(HistogramTest, QuantileIsWithinOneSixteenthAboveExact) {
  // 20000 log-uniform values across eight decades: every reported
  // quantile lies in [exact, exact * 17/16], where exact is the value of
  // rank floor(q * n) in sorted order.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(std::log(0.01),
                                                  std::log(1e6));
  Histogram h;
  std::vector<double> values(20000);
  for (double& v : values) {
    v = std::exp(exponent(rng));
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSample s = h.Sample();
  ASSERT_EQ(s.count, values.size());
  for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
                   1.0}) {
    const size_t rank = std::min(
        values.size() - 1, static_cast<size_t>(q * double(values.size())));
    const double exact = values[rank];
    EXPECT_GE(s.Quantile(q), exact) << "q=" << q;
    EXPECT_LE(s.Quantile(q), exact * 17 / 16) << "q=" << q;
  }
}

TEST(HistogramTest, BucketBoundsTileEachPowerOfTwo) {
  // Bucket 0 ends at 2^-10, every range (2^(k-1), 2^k] up to 2^38 is 16
  // equal-width buckets ending exactly on 2^k, and the last bucket is +Inf.
  EXPECT_EQ(Histogram::kBuckets, 770u);
  EXPECT_EQ(Histogram::BucketBound(0), std::ldexp(1.0, -10));
  EXPECT_TRUE(std::isinf(Histogram::BucketBound(Histogram::kBuckets - 1)));
  size_t i = 1;
  for (int k = -9; k <= 38; ++k) {
    const double lo = std::ldexp(1.0, k - 1);
    for (int j = 1; j <= 16; ++j, ++i) {
      EXPECT_EQ(Histogram::BucketBound(i), lo + j * (lo / 16))
          << "bucket " << i;
    }
  }
  EXPECT_EQ(i, Histogram::kBuckets - 1);
  // Each value lands in the bucket whose range holds it: on a bound it
  // counts in the bucket that bound ends, just above it in the next one.
  for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    const double bound = Histogram::BucketBound(b);
    for (double v : {bound, std::nextafter(bound, INFINITY)}) {
      Histogram h;
      h.Observe(v);
      const HistogramSample s = h.Sample();
      const size_t want = v == bound ? b : b + 1;
      EXPECT_EQ(s.buckets[want], 1u) << "value " << v;
    }
  }
}

}  // namespace
}  // namespace densest::obs
