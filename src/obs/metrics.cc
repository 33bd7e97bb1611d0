#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>

#include "common/mutex.h"

namespace densest::obs {

namespace metrics_internal {

size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kStripes;
  return stripe;
}

namespace {

[[noreturn]] void UnregisteredName(const char* kind, std::string_view name) {
  // Reaching this means an instrumentation site bypassed the registry
  // contract that tools/lint.py enforces statically; there is no sane
  // fallback (a silently minted series defeats the single-source list).
  std::fprintf(stderr,
               "densest::obs: %s \"%.*s\" is not in obs/metric_names.h "
               "(and lacks the reserved \"t.\" test prefix)\n",
               kind, static_cast<int>(name.size()), name.data());
  std::abort();
}

template <size_t N>
ptrdiff_t IndexOf(const std::string_view (&names)[N], std::string_view name) {
  const std::string_view* it = std::lower_bound(names, names + N, name);
  if (it == names + N || *it != name) return -1;
  return it - names;
}

}  // namespace

}  // namespace metrics_internal

// Bucket 16 * (e - kMinExponent) + j, for j = 1..16, is the range
// (2^e * (1 + (j-1)/16), 2^e * (1 + j/16)]. With j = 0 the same formula
// names the bucket that ends at exactly 2^e; for e = kMinExponent that is
// bucket 0.
size_t Histogram::BucketIndex(double value) {
  if (!(value > std::ldexp(1.0, kMinExponent))) return 0;  // NaN too
  if (value > std::ldexp(1.0, kMaxExponent)) return kBuckets - 1;
  const int e = std::ilogb(value);  // floor(log2(value))
  // (mantissa - 1) * 16 is exact in double, so the ceiling is exact too.
  const double j = std::ceil((std::scalbn(value, -e) - 1) * kSubBuckets);
  return static_cast<size_t>((e - kMinExponent) * kSubBuckets) +
         static_cast<size_t>(j);
}

double Histogram::BucketBound(size_t i) {
  if (i == 0) return std::ldexp(1.0, kMinExponent);
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  const int e = static_cast<int>((i - 1) / kSubBuckets) + kMinExponent;
  const double j = static_cast<double>((i - 1) % kSubBuckets + 1);
  return std::ldexp(1 + j / kSubBuckets, e);
}

HistogramSample Histogram::Sample() const {
  HistogramSample s;
  s.name = name_;
  // Count from the buckets: a separate count could differ transiently
  // under concurrent Observe(), and the exporters promise
  // sum(buckets) == count in every exposition.
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  const double mn = min_.load(std::memory_order_relaxed);
  const double mx = max_.load(std::memory_order_relaxed);
  s.min = std::isfinite(mn) ? mn : 0;
  s.max = std::isfinite(mx) ? mx : 0;
  return s;
}

double HistogramSample::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = std::min<uint64_t>(
      count - 1, static_cast<uint64_t>(q * static_cast<double>(count)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Clip the bucket bound by the observed extrema so tiny samples
      // report sane values (a single 3us observation reports 3us, not 4).
      return std::clamp(Histogram::BucketBound(i), min, max);
    }
  }
  return max;
}

/// "t."-prefixed scratch metrics, minted on first use. A plain map under
/// a mutex: test metrics are never on a measured hot path.
struct MetricsRegistry::TestSlots {
  Mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      DENSEST_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      DENSEST_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      DENSEST_GUARDED_BY(mu);
};

MetricsRegistry::MetricsRegistry() {
  counters_.reserve(std::size(kCounterNames));
  for (std::string_view name : kCounterNames) {
    counters_.push_back(std::make_unique<Counter>(std::string(name)));
  }
  gauges_.reserve(std::size(kGaugeNames));
  for (std::string_view name : kGaugeNames) {
    gauges_.push_back(std::make_unique<Gauge>(std::string(name)));
  }
  histograms_.reserve(std::size(kHistogramNames));
  for (std::string_view name : kHistogramNames) {
    histograms_.push_back(std::make_unique<Histogram>(std::string(name)));
  }
  test_slots_ = new TestSlots();  // lint:allow(naked-new) — leaked singleton
}

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked like Failpoints: metric handles are touched from detached-ish
  // contexts (thread pools draining at exit), so the registry must outlive
  // every static destructor.
  static MetricsRegistry* instance =
      new MetricsRegistry();  // lint:allow(naked-new) — leaked singleton
  return *instance;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const ptrdiff_t i = metrics_internal::IndexOf(kCounterNames, name);
  if (i >= 0) return *counters_[static_cast<size_t>(i)];
  if (!IsTestMetricName(name)) metrics_internal::UnregisteredName("counter", name);
  MutexLock lock(test_slots_->mu);
  std::unique_ptr<Counter>& slot = test_slots_->counters[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>(std::string(name));
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  const ptrdiff_t i = metrics_internal::IndexOf(kGaugeNames, name);
  if (i >= 0) return *gauges_[static_cast<size_t>(i)];
  if (!IsTestMetricName(name)) metrics_internal::UnregisteredName("gauge", name);
  MutexLock lock(test_slots_->mu);
  std::unique_ptr<Gauge>& slot = test_slots_->gauges[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>(std::string(name));
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  const ptrdiff_t i = metrics_internal::IndexOf(kHistogramNames, name);
  if (i >= 0) return *histograms_[static_cast<size_t>(i)];
  if (!IsTestMetricName(name)) {
    metrics_internal::UnregisteredName("histogram", name);
  }
  MutexLock lock(test_slots_->mu);
  std::unique_ptr<Histogram>& slot =
      test_slots_->histograms[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::string(name));
  return *slot;
}

namespace {

CounterSample SampleOf(const Counter& c) {
  return CounterSample{c.name(), c.Value()};
}

GaugeSample SampleOf(const Gauge& g) { return GaugeSample{g.name(), g.Value()}; }

}  // namespace

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) snap.counters.push_back(SampleOf(*c));
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) snap.gauges.push_back(SampleOf(*g));
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) snap.histograms.push_back(h->Sample());
  MutexLock lock(test_slots_->mu);
  for (const auto& [name, c] : test_slots_->counters) {
    snap.counters.push_back(SampleOf(*c));
  }
  for (const auto& [name, g] : test_slots_->gauges) {
    snap.gauges.push_back(SampleOf(*g));
  }
  for (const auto& [name, h] : test_slots_->histograms) {
    snap.histograms.push_back(h->Sample());
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  for (const auto& c : counters_) {
    for (Counter::Stripe& s : c->stripes_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& g : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (const auto& h : histograms_) {
    for (std::atomic<uint64_t>& b : h->buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    h->sum_.store(0, std::memory_order_relaxed);
    h->min_.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    h->max_.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  }
  MutexLock lock(test_slots_->mu);
  test_slots_->counters.clear();
  test_slots_->gauges.clear();
  test_slots_->histograms.clear();
  set_enabled(true);
}

}  // namespace densest::obs
