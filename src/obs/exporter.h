// Copyright 2026 The densest Authors.
// Rendering the metrics plane at the process edges: Prometheus-style text
// exposition, a JSON mirror of the same snapshot, and a compact one-line
// summary for --stats-every style periodic dumps.
//
// Exposition contract (relied on by tools/check_obs.py in CI): every name
// in obs/metric_names.h appears in every exposition — registered slots
// are pre-allocated, so "never incremented" renders as an explicit 0, not
// an absent series. Names are mangled `subsystem.operation` ->
// `densest_subsystem_operation`; histograms expand to cumulative
// `_bucket{le="..."}` lines plus `_sum` and `_count`. Bucket lines and the
// JSON `buckets` array keep one range per power of two (le = 1, 2, 4,
// ..., 2^38, +Inf); the histogram's 16 sub-buckets per range fold into
// them and show only in the finer p50/p99.

#ifndef DENSEST_OBS_EXPORTER_H_
#define DENSEST_OBS_EXPORTER_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace densest::obs {

/// \brief Stateless renderers over a collected MetricsSnapshot.
class MetricsExporter {
 public:
  /// Prometheus text exposition format (# TYPE comments, counter /
  /// gauge / histogram families).
  static std::string RenderPrometheus(const MetricsSnapshot& snapshot);

  /// The same snapshot as a JSON object:
  /// {"counters":{name:value,...},"gauges":{...},
  ///  "histograms":{name:{count,sum,min,max,mean,p50,p99,buckets:[...]}}}
  static std::string RenderJson(const MetricsSnapshot& snapshot);

  /// One line of the non-zero story — counters and histogram counts that
  /// are > 0 — for periodic stats dumps where 40 zero lines would bury
  /// the signal. Empty snapshot renders "no metrics".
  static std::string SummaryLine(const MetricsSnapshot& snapshot);
};

/// Collect() + RenderPrometheus over the global registry.
std::string RenderMetricsPrometheus();

/// Collect() + render + write to `path`. Format picked by extension:
/// ".json" gets the JSON mirror, anything else the text exposition.
Status WriteMetricsFile(const std::string& path);

}  // namespace densest::obs

#endif  // DENSEST_OBS_EXPORTER_H_
