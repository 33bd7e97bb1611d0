#include "obs/exporter.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace densest::obs {

namespace {

/// "subsystem.operation" -> "densest_subsystem_operation". The registry
/// grammar only admits [a-z0-9_.], so mangling is a plain dot swap.
std::string Mangle(const std::string& name) {
  std::string out = "densest_";
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

/// Shortest round-trip-ish double rendering: integers without a trailing
/// ".0" (Prometheus and JSON both accept either), %.17g would be noisy.
std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

std::string U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// One exposed bucket: an upper bound and the count in its range.
struct ExposedBucket {
  double bound;
  uint64_t count;
};

/// The exposition keeps one bucket per power of two, le = 1, 2, 4, ...,
/// 2^38 and +Inf, so scrapers see the same series whatever the sub-bucket
/// layout: fold the histogram's buckets into those ranges (everything
/// <= 1 into le = 1).
std::vector<ExposedBucket> PowerOfTwoBuckets(const HistogramSample& h) {
  std::vector<ExposedBucket> out;
  uint64_t count = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    count += h.buckets[i];
    const double bound = Histogram::BucketBound(i);
    if (bound >= 1 && std::ldexp(1.0, std::ilogb(bound)) == bound) {
      out.push_back({bound, count});
      count = 0;
    }
  }
  return out;
}

}  // namespace

std::string MetricsExporter::RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const CounterSample& c : snapshot.counters) {
    const std::string m = Mangle(c.name);
    out += "# TYPE " + m + " counter\n";
    out += m + " " + U64(c.value) + "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string m = Mangle(g.name);
    out += "# TYPE " + m + " gauge\n";
    out += m + " " + Num(g.value) + "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const std::string m = Mangle(h.name);
    out += "# TYPE " + m + " histogram\n";
    const std::vector<ExposedBucket> buckets = PowerOfTwoBuckets(h);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      // Trailing all-zero buckets past the data still need one +Inf line;
      // interior zero buckets are kept (cumulative form requires them for
      // correct quantile math on the scrape side) except when the whole
      // tail is empty — elide runs of empty buckets above the max bound
      // to keep the exposition readable.
      cumulative += buckets[i].count;
      const double bound = buckets[i].bound;
      const bool last = i + 1 == buckets.size();
      if (!last && cumulative == h.count && bound > h.max &&
          buckets[i].count == 0) {
        continue;
      }
      out += m + "_bucket{le=\"" + Num(bound) + "\"} " + U64(cumulative) + "\n";
    }
    out += m + "_sum " + Num(h.sum) + "\n";
    out += m + "_count " + U64(h.count) + "\n";
  }
  return out;
}

std::string MetricsExporter::RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    \"" + c.name + "\": " + U64(c.value);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    \"" + g.name + "\": " + Num(g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    \"" + h.name + "\": {\"count\": " + U64(h.count) +
           ", \"sum\": " + Num(h.sum) + ", \"min\": " + Num(h.min) +
           ", \"max\": " + Num(h.max) + ", \"mean\": " + Num(h.Mean()) +
           ", \"p50\": " + Num(h.Quantile(0.5)) +
           ", \"p99\": " + Num(h.Quantile(0.99)) + ", \"buckets\": [";
    // Only up to the last non-empty bucket; the fixed shape is implied.
    const std::vector<ExposedBucket> buckets = PowerOfTwoBuckets(h);
    size_t last = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].count != 0) last = b + 1;
    }
    for (size_t b = 0; b < last; ++b) {
      if (b != 0) out += ", ";
      out += U64(buckets[b].count);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsExporter::SummaryLine(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSample& c : snapshot.counters) {
    if (c.value == 0) continue;
    if (!out.empty()) out += " ";
    out += c.name + "=" + U64(c.value);
  }
  for (const HistogramSample& h : snapshot.histograms) {
    if (h.count == 0) continue;
    if (!out.empty()) out += " ";
    out += h.name + "{n=" + U64(h.count) + ",p50=" + Num(h.Quantile(0.5)) +
           ",p99=" + Num(h.Quantile(0.99)) + "}";
  }
  return out.empty() ? "no metrics" : out;
}

std::string RenderMetricsPrometheus() {
  return MetricsExporter::RenderPrometheus(MetricsRegistry::Get().Collect());
}

Status WriteMetricsFile(const std::string& path) {
  const MetricsSnapshot snapshot = MetricsRegistry::Get().Collect();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = json ? MetricsExporter::RenderJson(snapshot)
                                : MetricsExporter::RenderPrometheus(snapshot);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != body.size() || !close_ok) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace densest::obs
