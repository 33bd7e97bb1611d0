// Copyright 2026 The densest Authors.
// Lock-cheap process-wide metrics registry: named Counter / Gauge /
// Histogram handles over relaxed atomics, collected into a consistent
// snapshot for the exporters (obs/exporter.h).
//
// Design, and why it is cheap enough to leave on everywhere:
//   - One slot per registered name (obs/metric_names.h), pre-allocated at
//     first use and never freed or moved, so a handle is a plain reference
//     that stays valid for the process lifetime. Call sites look the name
//     up once through a function-local static inside the DENSEST_METRIC_*
//     macros; the steady-state cost of Inc() is one relaxed load (the
//     global enable flag) plus one relaxed fetch_add on a cache line the
//     calling thread rarely shares.
//   - Counters are striped across 8 cache-line-aligned atomics; each
//     thread picks a stripe once (round-robin thread_local), so writer,
//     query-client, and engine-pool threads don't bounce one line. Value()
//     and Collect() sum the stripes.
//   - Unregistered names abort: lint enforces the registry statically
//     (tools/lint.py --self-test covers it), so hitting the abort means a
//     site bypassed the macro grammar. Names with the reserved "t."
//     prefix are exempt — tests mint those on demand, like failpoints.
//   - Collect() is wait-free for the writers it observes: it reads each
//     slot with relaxed loads, so a snapshot is monotone-consistent (every
//     counter value was true at some instant during the call; 64-bit
//     atomics cannot tear) rather than a cross-metric linearization point,
//     which is all a scrape needs.
//
// The global enable flag (MetricsRegistry::set_enabled) exists for the
// bench overhead gate: benches A/B the same binary with metrics on/off to
// prove the on-path costs < 2%. It is not a lifecycle: normal runs leave
// it on (the default).

#ifndef DENSEST_OBS_METRICS_H_
#define DENSEST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metric_names.h"

namespace densest::obs {

namespace metrics_internal {

/// Relaxed CAS add for pre-C++20-fetch_add-style atomic doubles; the
/// histogram sum is the only contended double in the plane.
inline void AtomicAdd(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

inline void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Global on/off for the hot paths; relaxed — flipping it mid-run only
/// needs to become visible eventually (bench A/B flips it between phases,
/// with the phases separated by thread joins).
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

inline bool Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

/// Stripe assignment: each thread draws one index for life, round-robin,
/// so any 8 concurrent threads spread across all stripes.
size_t ThisThreadStripe();

}  // namespace metrics_internal

/// \brief Monotone event counter, striped to keep concurrent Inc() from
/// bouncing a single cache line. Handles come from MetricsRegistry /
/// DENSEST_METRIC_COUNTER and live forever.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t delta = 1) {
    if (!metrics_internal::Enabled()) return;
    stripes_[metrics_internal::ThisThreadStripe()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over stripes; monotone-consistent under concurrent Inc().
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  std::string name_;
  Stripe stripes_[kStripes];
};

/// \brief Last-written value (a level, not a tally): queue depth, answer
/// age, current epoch, current density.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
    if (!metrics_internal::Enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::atomic<double> v_{0};
};

/// \brief Concurrent log2-bucketed histogram of non-negative values.
/// Bucket i counts observations with value <= 2^i (bucket 0: <= 1; the
/// last bucket is the +Inf catch-all), which is plenty of resolution for
/// latencies spanning 1us..~1h while keeping Observe() to two relaxed
/// RMWs plus min/max CAS. Distinct from densest::Histogram (common/),
/// which is a single-threaded exact-quantile reservoir; this one trades
/// quantile exactness for thread-safety and a mergeable fixed shape.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) {
    if (!metrics_internal::Enabled()) return;
    if (value < 0) value = 0;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    metrics_internal::AtomicAdd(sum_, value);
    metrics_internal::AtomicMin(min_, value);
    metrics_internal::AtomicMax(max_, value);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// +Inf / -Inf when empty (the collected sample reports 0 instead).
  double MinSeen() const { return min_.load(std::memory_order_relaxed); }
  double MaxSeen() const { return max_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

  /// Upper bound of bucket i (2^i), +Inf for the last bucket.
  static double BucketBound(size_t i);

 private:
  friend class MetricsRegistry;

  static size_t BucketIndex(double value);

  std::string name_;
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// \brief One collected counter/gauge/histogram value, detached from the
/// live atomics; what the exporters and --stats-every render.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0;
};

struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;  ///< 0 when empty
  double max = 0;  ///< 0 when empty
  std::array<uint64_t, Histogram::kBuckets> buckets = {};

  double Mean() const { return count == 0 ? 0 : sum / double(count); }
  /// Approximate quantile from the log2 buckets (returns the upper bound
  /// of the bucket holding the q-th observation; 0 when empty).
  double Quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;      ///< registry order (sorted)
  std::vector<GaugeSample> gauges;          ///< registry order (sorted)
  std::vector<HistogramSample> histograms;  ///< registry order (sorted)
};

/// \brief Process-wide owner of every metric slot. Leaked singleton like
/// Failpoints: handles returned by Get*() stay valid until process exit.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Handle lookup by registered name (binary search over the name table)
  /// or by a reserved "t." test name (mutex-guarded side table, minted on
  /// first use). Aborts on any other name — see the file comment.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Detached snapshot of every slot, registered names first (in
  /// metric_names.h order, ALWAYS all present — exposition completeness
  /// is checked against the header in CI) then any live test metrics.
  MetricsSnapshot Collect() const;

  /// Bench A/B switch; see the file comment. Defaults to enabled.
  void set_enabled(bool enabled) {
    metrics_internal::EnabledFlag().store(enabled,
                                          std::memory_order_relaxed);
  }
  bool enabled() const { return metrics_internal::Enabled(); }

  /// Zeroes every registered slot and drops test metrics (invalidating
  /// their handles) — only safe with no concurrent metric writers, i.e.
  /// between tests.
  void ResetForTest();

 private:
  MetricsRegistry();

  struct TestSlots;  // "t."-prefixed overflow, defined in metrics.cc

  // Registered slots, index-aligned with the metric_names.h arrays.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  TestSlots* test_slots_;
};

}  // namespace densest::obs

/// Call-site macros: look the handle up once (function-local static), then
/// touch atomics only. `name` must be a registered literal — tools/lint.py
/// cross-checks every occurrence against obs/metric_names.h.
#define DENSEST_METRIC_COUNTER(name)                               \
  ([]() -> ::densest::obs::Counter& {                              \
    static ::densest::obs::Counter& slot =                         \
        ::densest::obs::MetricsRegistry::Get().GetCounter(name);   \
    return slot;                                                   \
  }())

#define DENSEST_METRIC_GAUGE(name)                                 \
  ([]() -> ::densest::obs::Gauge& {                                \
    static ::densest::obs::Gauge& slot =                           \
        ::densest::obs::MetricsRegistry::Get().GetGauge(name);     \
    return slot;                                                   \
  }())

#define DENSEST_METRIC_HISTOGRAM(name)                             \
  ([]() -> ::densest::obs::Histogram& {                            \
    static ::densest::obs::Histogram& slot =                       \
        ::densest::obs::MetricsRegistry::Get().GetHistogram(name); \
    return slot;                                                   \
  }())

#endif  // DENSEST_OBS_METRICS_H_
