// Tests of the benchmark's own reporting logic: nearest-rank percentiles,
// the ">= 10 samples beyond" support rule, and span self-time accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankIsExactInteger) {
  EXPECT_EQ(NearestRank(0, 9900), 0u);
  EXPECT_EQ(NearestRank(1, 9900), 1u);
  EXPECT_EQ(NearestRank(1000, 9900), 990u);
  EXPECT_EQ(NearestRank(999, 9900), 990u);  // ceil(989.01)
  EXPECT_EQ(NearestRank(10000, 9990), 9990u);
  EXPECT_EQ(NearestRank(4, 5000), 2u);
}

TEST(PercentileTest, ReportsObservedSampleNeverInterpolated) {
  const std::vector<double> v = OneTo(1000);
  ASSERT_TRUE(Percentile(v, 9900).has_value());
  EXPECT_EQ(*Percentile(v, 9900), 990.0);
  const std::vector<double> sparse = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                      11, 12, 13, 14, 15, 16, 17, 18, 19, 1000};
  // p50 of 20 samples is the 10th sample itself, with 10 beyond it.
  ASSERT_TRUE(Percentile(sparse, 5000).has_value());
  EXPECT_EQ(*Percentile(sparse, 5000), 10.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(Percentile(OneTo(1000), 9900).has_value());    // 10 beyond
  EXPECT_FALSE(Percentile(OneTo(999), 9900).has_value());    // 9 beyond
  EXPECT_TRUE(Percentile(OneTo(10000), 9990).has_value());
  EXPECT_FALSE(Percentile(OneTo(9999), 9990).has_value());
  EXPECT_FALSE(Percentile(OneTo(19), 5000).has_value());
  EXPECT_TRUE(Percentile(OneTo(20), 5000).has_value());
  EXPECT_FALSE(Percentile({}, 5000).has_value());
}

TEST(PercentileTest, SummaryClimbsToHighestSupportedTail) {
  TailSummary few = Summarize(OneTo(5));
  EXPECT_EQ(few.count, 5u);
  EXPECT_EQ(few.median, 3.0);
  EXPECT_EQ(few.tail, 0u);  // insufficient

  TailSummary hundred = Summarize(OneTo(100));
  EXPECT_EQ(hundred.tail, 9000u);
  EXPECT_EQ(hundred.tail_value, 90.0);

  TailSummary many = Summarize(OneTo(10000));
  EXPECT_EQ(many.tail, 9990u);
  EXPECT_EQ(many.tail_value, 9990.0);
}

TEST(PercentileTest, MedianIsLowerMiddleSample) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.0);
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PercentileTest, Labels) {
  EXPECT_EQ(PercentileLabel(5000), "p50");
  EXPECT_EQ(PercentileLabel(9000), "p90");
  EXPECT_EQ(PercentileLabel(9900), "p99");
  EXPECT_EQ(PercentileLabel(9990), "p99.9");
  EXPECT_EQ(PercentileLabel(9999), "p99.99");
}

TEST(ReportTest, UnsupportedPercentileIsInsufficient) {
  Report r;
  r.FixedPercentile("q_p999_us", OneTo(500), 9990, "us");
  r.Timing("t_s", OneTo(30), "s");
  const Metric* q = r.Find("q_p999_us");
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->insufficient);
  EXPECT_EQ(q->samples, 500u);
  const std::string json = r.ToJson({});
  EXPECT_NE(json.find("\"q_p999_us\":{\"unit\":\"us\",\"value\":\"insufficient\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tail\":{\"p\":\"p50\",\"value\":15}"), std::string::npos);
}

TEST(ReportTest, FailedCheckCountsAsFailedOp) {
  Report r;
  r.CountOps(10);
  EXPECT_TRUE(r.correct());
  r.Expect("something", false);
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.failed(), 1u);
  EXPECT_EQ(r.attempted(), 10u);
}

TEST(SpanTest, SelfTimesPlusRemainderEqualWall) {
  // root [0,100]; a (layer x) [10,40] containing b (layer y) [20,30];
  // c (layer y) [50,70]; d on another thread, outside the root's tree.
  std::vector<Span> spans = {
      {2, 1, "x", "a", 10, 40, 0}, {3, 2, "y", "b", 20, 30, 0},
      {4, 1, "y", "c", 50, 70, 0}, {5, 0, "z", "d", 0, 90, 1},
      {1, 0, "bench", "root", 0, 100, 0},
  };
  const WallAccount a = AccountWall(spans, 1);
  EXPECT_DOUBLE_EQ(a.wall_s, 100e-6);
  EXPECT_DOUBLE_EQ(a.unattributed_s, 50e-6);
  ASSERT_EQ(a.layers.size(), 2u);
  EXPECT_EQ(a.layers[0].layer, "y");  // largest self time first
  EXPECT_DOUBLE_EQ(a.layers[0].self_s, 30e-6);
  EXPECT_EQ(a.layers[0].spans, 2u);
  EXPECT_EQ(a.layers[1].layer, "x");
  EXPECT_DOUBLE_EQ(a.layers[1].self_s, 20e-6);
}

TEST(SpanTest, ScopesNestAndDisabledLogRecordsNothing) {
  SpanLog off(false);
  { SpanLog::Scope s(off, "x", "ignored"); }
  EXPECT_TRUE(off.spans().empty());

  SpanLog on(true);
  uint64_t outer_id = 0;
  {
    SpanLog::Scope outer(on, "bench", "outer");
    outer_id = outer.id();
    SpanLog::Scope inner(on, "x", "inner");
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, outer_id);  // inner closes first
  EXPECT_EQ(spans[1].parent, 0u);
  const WallAccount a = AccountWall(spans, outer_id);
  double total = a.unattributed_s;
  for (const LayerTime& lt : a.layers) total += lt.self_s;
  EXPECT_DOUBLE_EQ(total, a.wall_s);
}

}  // namespace
}  // namespace perfbench
