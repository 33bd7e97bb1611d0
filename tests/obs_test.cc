// Unit and concurrency tests for the observability layer (src/obs/):
// sharded counters under thread fan-out, snapshot-consistent Collect(),
// histogram bucketing, the exporter's completeness contract, and the trace
// recorder's per-thread span buffers. Test-local metric names use the
// reserved "t." prefix (see obs/metric_names.h), which the registry serves
// from its overflow map and the lint registry check exempts.

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/answer.h"
#include "obs/exporter.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"

namespace densest::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Get().ResetForTest();
    TraceRecorder::Get().ResetForTest();
  }
  void TearDown() override {
    MetricsRegistry::Get().ResetForTest();
    TraceRecorder::Get().ResetForTest();
  }
};

double CounterValue(const MetricsSnapshot& snap, std::string_view name) {
  for (const CounterSample& c : snap.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return -1;
}

TEST_F(ObsTest, CounterExactTotalAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kIncsPerThread; ++i) {
        DENSEST_METRIC_COUNTER("t.obs_counter").Inc();
      }
      DENSEST_METRIC_COUNTER("t.obs_counter_bulk").Inc(42);
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "t.obs_counter"), kThreads * kIncsPerThread);
  EXPECT_EQ(CounterValue(snap, "t.obs_counter_bulk"), kThreads * 42);
}

TEST_F(ObsTest, CollectIsMonotoneUnderConcurrentWriters) {
  // Four writers race Collect(): each collected total must be monotone
  // non-decreasing (stripes are monotone and read in order), and under
  // TSan this doubles as the torn-free data-race check for Collect.
  // Register the counter up front so the first Collect already sees it
  // even if no writer has managed an Inc yet.
  DENSEST_METRIC_COUNTER("t.obs_race").Inc();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        DENSEST_METRIC_COUNTER("t.obs_race").Inc();
      }
    });
  }
  double last = 1;
  for (int i = 0; i < 200; ++i) {
    const double v =
        CounterValue(MetricsRegistry::Get().Collect(), "t.obs_race");
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST_F(ObsTest, GaugeHoldsLastSet) {
  DENSEST_METRIC_GAUGE("t.obs_gauge").Set(2.5);
  DENSEST_METRIC_GAUGE("t.obs_gauge").Set(-7.25);
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  bool found = false;
  for (const GaugeSample& g : snap.gauges) {
    if (g.name == "t.obs_gauge") {
      EXPECT_DOUBLE_EQ(g.value, -7.25);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, HistogramBucketsCountSumMinMax) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("t.obs_hist");
  h.Observe(0.5);
  h.Observe(3.0);
  h.Observe(1000.0);
  h.Observe(-5.0);  // clamped to 0
  const HistogramSample s = h.Sample();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 1003.5);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_EQ(s.buckets[0], 1u);  // the clamped 0
}

TEST_F(ObsTest, HistogramSampleQuantileClampedToObservedRange) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("t.obs_hist_q");
  for (int i = 0; i < 100; ++i) h.Observe(99.0);
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  for (const HistogramSample& s : snap.histograms) {
    if (s.name != "t.obs_hist_q") continue;
    EXPECT_EQ(s.count, 100u);
    // 99 lies in the bucket (96, 100]; the sample clamps the quantile to
    // the observed max.
    EXPECT_DOUBLE_EQ(s.Quantile(0.5), 99.0);
    EXPECT_DOUBLE_EQ(s.Quantile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 99.0);
    return;
  }
  FAIL() << "t.obs_hist_q not collected";
}

TEST_F(ObsTest, DisabledRegistryDropsWrites) {
  MetricsRegistry::Get().set_enabled(false);
  DENSEST_METRIC_COUNTER("t.obs_off").Inc();
  DENSEST_METRIC_GAUGE("t.obs_off_g").Set(9);
  MetricsRegistry::Get().set_enabled(true);
  DENSEST_METRIC_COUNTER("t.obs_off").Inc();
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "t.obs_off"), 1);
}

TEST_F(ObsTest, PrometheusExpositionContainsEveryRegisteredName) {
  auto mangled = [](std::string_view name) {
    std::string out = "densest_";
    for (char c : name) out.push_back(c == '.' ? '_' : c);
    return out;
  };
  const std::string text = RenderMetricsPrometheus();
  for (std::string_view name : kCounterNames) {
    EXPECT_NE(text.find("\n" + mangled(name) + " "), std::string::npos)
        << "counter " << name << " absent from exposition";
  }
  for (std::string_view name : kGaugeNames) {
    EXPECT_NE(text.find("\n" + mangled(name) + " "), std::string::npos)
        << "gauge " << name << " absent from exposition";
  }
  for (std::string_view name : kHistogramNames) {
    EXPECT_NE(text.find(mangled(name) + "_count"), std::string::npos)
        << "histogram " << name << " absent from exposition";
    EXPECT_NE(text.find(mangled(name) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << "histogram " << name << " missing its +Inf bucket";
  }
}

TEST_F(ObsTest, HistogramExpositionBucketSumMatchesCount) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("dynamic.query_latency_us");
  for (int i = 0; i < 7; ++i) h.Observe(static_cast<double>(1 << i));
  const std::string text = RenderMetricsPrometheus();
  const std::string inf =
      "densest_dynamic_query_latency_us_bucket{le=\"+Inf\"} 7";
  const std::string count = "densest_dynamic_query_latency_us_count 7";
  EXPECT_NE(text.find(inf), std::string::npos) << text;
  EXPECT_NE(text.find(count), std::string::npos) << text;
}

TEST_F(ObsTest, HistogramExpositionKeepsPowerOfTwoBounds) {
  // The exposition contract: `_bucket` lines only at le = 1, 2, 4, ...,
  // 2^38 and +Inf, empty ranges above the max elided, and one JSON bucket
  // count per power-of-two range. The literals are the rendering of the
  // log2-bucketed histogram this layout replaced.
  Histogram& h = MetricsRegistry::Get().GetHistogram("t.obs_expo");
  for (double v : {0.0, 1e-4, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 3.0, 17.0, 100.0,
                   1000.0, 1024.0, 5e6, 3e11, 1e12}) {
    h.Observe(v);
  }
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  std::istringstream text(MetricsExporter::RenderPrometheus(snap));
  std::string series;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("densest_t_obs_expo_", 0) == 0) series += line + "\n";
  }
  EXPECT_EQ(series, R"(densest_t_obs_expo_bucket{le="1"} 5
densest_t_obs_expo_bucket{le="2"} 7
densest_t_obs_expo_bucket{le="4"} 9
densest_t_obs_expo_bucket{le="8"} 9
densest_t_obs_expo_bucket{le="16"} 9
densest_t_obs_expo_bucket{le="32"} 10
densest_t_obs_expo_bucket{le="64"} 10
densest_t_obs_expo_bucket{le="128"} 11
densest_t_obs_expo_bucket{le="256"} 11
densest_t_obs_expo_bucket{le="512"} 11
densest_t_obs_expo_bucket{le="1024"} 13
densest_t_obs_expo_bucket{le="2048"} 13
densest_t_obs_expo_bucket{le="4096"} 13
densest_t_obs_expo_bucket{le="8192"} 13
densest_t_obs_expo_bucket{le="16384"} 13
densest_t_obs_expo_bucket{le="32768"} 13
densest_t_obs_expo_bucket{le="65536"} 13
densest_t_obs_expo_bucket{le="131072"} 13
densest_t_obs_expo_bucket{le="262144"} 13
densest_t_obs_expo_bucket{le="524288"} 13
densest_t_obs_expo_bucket{le="1048576"} 13
densest_t_obs_expo_bucket{le="2097152"} 13
densest_t_obs_expo_bucket{le="4194304"} 13
densest_t_obs_expo_bucket{le="8388608"} 14
densest_t_obs_expo_bucket{le="16777216"} 14
densest_t_obs_expo_bucket{le="33554432"} 14
densest_t_obs_expo_bucket{le="67108864"} 14
densest_t_obs_expo_bucket{le="134217728"} 14
densest_t_obs_expo_bucket{le="268435456"} 14
densest_t_obs_expo_bucket{le="536870912"} 14
densest_t_obs_expo_bucket{le="1073741824"} 14
densest_t_obs_expo_bucket{le="2147483648"} 14
densest_t_obs_expo_bucket{le="4294967296"} 14
densest_t_obs_expo_bucket{le="8589934592"} 14
densest_t_obs_expo_bucket{le="17179869184"} 14
densest_t_obs_expo_bucket{le="34359738368"} 14
densest_t_obs_expo_bucket{le="68719476736"} 14
densest_t_obs_expo_bucket{le="137438953472"} 14
densest_t_obs_expo_bucket{le="274877906944"} 14
densest_t_obs_expo_bucket{le="+Inf"} 16
densest_t_obs_expo_sum 1.30001e+12
densest_t_obs_expo_count 16
)");
  const std::string json = MetricsExporter::RenderJson(snap);
  const size_t from = json.find("\"buckets\": [", json.find("\"t.obs_expo\""));
  ASSERT_NE(from, std::string::npos) << json;
  EXPECT_EQ(json.substr(from, json.find(']', from) + 1 - from),
            "\"buckets\": [5, 2, 2, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, "
            "0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
            "0, 2]");
}

TEST_F(ObsTest, JsonMirrorRendersAllThreeKinds) {
  DENSEST_METRIC_COUNTER("core.passes").Inc(3);
  const std::string json =
      MetricsExporter::RenderJson(MetricsRegistry::Get().Collect());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"core.passes\": 3"), std::string::npos) << json;
}

TEST_F(ObsTest, SummaryLineShowsOnlyNonZero) {
  DENSEST_METRIC_COUNTER("core.passes").Inc(2);
  const std::string line =
      MetricsExporter::SummaryLine(MetricsRegistry::Get().Collect());
  EXPECT_NE(line.find("core.passes=2"), std::string::npos) << line;
  EXPECT_EQ(line.find("mr.jobs"), std::string::npos) << line;
}

// ------------------------------------------------------------- tracing --

#if defined(DENSEST_TRACING_ENABLED)

/// Spins until the recorder clock advances at least `us` microseconds, so
/// nested spans get strictly ordered timestamps.
void SpinMicros(uint64_t us) {
  const uint64_t start = TraceRecorder::Get().NowMicros();
  while (TraceRecorder::Get().NowMicros() - start < us) {
  }
}

TEST_F(ObsTest, MultiThreadedSpansAreWellNestedPerThread) {
  TraceRecorder::Get().Start();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      DENSEST_TRACE_SPAN("t.outer");
      SpinMicros(2);
      {
        DENSEST_TRACE_SPAN("t.inner");
        SpinMicros(2);
      }
      SpinMicros(2);
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::Get().Stop();

  std::vector<TraceSpan> spans = TraceRecorder::Get().Drain();
  // One outer + one inner per thread; each thread's inner is strictly
  // contained in its outer.
  std::map<uint32_t, std::vector<TraceSpan>> by_tid;
  for (const TraceSpan& s : spans) by_tid[s.tid].push_back(s);
  int threads_with_spans = 0;
  for (const auto& [tid, list] : by_tid) {
    if (list.empty()) continue;
    ++threads_with_spans;
    ASSERT_EQ(list.size(), 2u) << "tid " << tid;
    const TraceSpan* outer = nullptr;
    const TraceSpan* inner = nullptr;
    for (const TraceSpan& s : list) {
      if (s.name == "t.outer") outer = &s;
      if (s.name == "t.inner") inner = &s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
    EXPECT_LT(inner->dur_us, outer->dur_us);
  }
  EXPECT_EQ(threads_with_spans, kThreads);
  EXPECT_EQ(TraceRecorder::Get().dropped(), 0u);
}

TEST_F(ObsTest, DrainToJsonEmitsCompleteEvents) {
  TraceRecorder::Get().Start();
  {
    DENSEST_TRACE_SPAN("t.outer");
    SpinMicros(1);
  }
  std::thread other([] {
    DENSEST_TRACE_SPAN("t.inner");
    SpinMicros(1);
  });
  other.join();
  TraceRecorder::Get().Stop();
  const std::string json = TraceRecorder::Get().DrainToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Braces and brackets balance (the quick structural sanity check; CI's
  // tools/check_obs.py does the real JSON parse).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(ObsTest, SpansOutsideRecordingAreNotBuffered) {
  {
    DENSEST_TRACE_SPAN("t.outer");
    SpinMicros(1);
  }
  EXPECT_TRUE(TraceRecorder::Get().Drain().empty());
}

#endif  // DENSEST_TRACING_ENABLED

// ----------------------------------------------------- stats query kind --

TEST_F(ObsTest, StatsQueryKindServesExposition) {
  AnswerPlane plane(16);
  Answer a;
  a.density = 1.5;
  a.upper_bound = 3.0;
  a.size = 4;
  a.certified = true;
  const std::vector<NodeId> members = {1, 2, 3, 5};
  plane.Publish(a, members, 10);

  QueryServiceOptions opts;
  opts.num_readers = 2;
  QueryService service(plane, opts);
  const std::vector<ServeQuery> queries = {
      ServeQuery{ServeQuery::Kind::kStats, 0},
      ServeQuery{ServeQuery::Kind::kDensity, 0},
  };
  std::vector<ServeResult> results;
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  ASSERT_EQ(results.size(), 2u);
  // The stats result carries the exposition plus the same answer a density
  // query would have served; the density result has no stats text.
  EXPECT_NE(results[0].stats_text.find("densest_serve_publications 1"),
            std::string::npos)
      << results[0].stats_text;
  EXPECT_NE(results[0].stats_text.find("densest_serve_stats_queries"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(results[0].answer.density, 1.5);
  EXPECT_TRUE(results[1].stats_text.empty());
  service.Stop();

  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "serve.stats_queries"), 1);
  EXPECT_EQ(CounterValue(snap, "serve.queries_served"), 2);
}

}  // namespace
}  // namespace densest::obs
