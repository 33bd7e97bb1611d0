// Unit tests for the streaming histogram.

#include "common/histogram.h"

#include <gtest/gtest.h>

namespace densest {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Mean(), 42.0);
  EXPECT_EQ(h.Min(), 42.0);
  EXPECT_EQ(h.Max(), 42.0);
  EXPECT_EQ(h.Quantile(0.0), 42.0);
  EXPECT_EQ(h.Quantile(1.0), 42.0);
}

TEST(HistogramTest, MeanMinMaxSum) {
  Histogram h;
  for (double x : {1.0, 2.0, 3.0, 4.0}) h.Add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_EQ(h.Min(), 1.0);
  EXPECT_EQ(h.Max(), 4.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 10.0);
}

TEST(HistogramTest, ExactQuantilesForSmallSamples) {
  Histogram h;
  for (int i = 1; i <= 101; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.Quantile(0.5), 51.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.Quantile(1.0), 101.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.25), 26.0, 1e-9);
}

TEST(HistogramTest, ReservoirKeepsQuantilesApproximatelyRight) {
  Histogram h(512);  // force reservoir mode
  for (int i = 0; i < 100000; ++i) h.Add(static_cast<double>(i % 1000));
  EXPECT_EQ(h.count(), 100000u);
  // p50 of a uniform 0..999 stream should be near 500.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 100.0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(1);
  h.Add(2);
  EXPECT_NE(h.ToString().find("count=2"), std::string::npos);
}

}  // namespace
}  // namespace densest
