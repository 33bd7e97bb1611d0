// What one benchmark run produces: named metrics with units (timings as
// median + supported tail + sample count), correctness checks, the op
// tally behind ops_failed_frac, and the environment fingerprint. Printed
// as a human-readable report and written as one results JSON document.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// \brief One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  /// True when the run produced no supportable value (e.g. a p99.9 with
  /// fewer than ten samples beyond it); `value` is then meaningless.
  bool insufficient = false;
  double value = 0;
  /// Samples behind the value (0 = a single measurement or a count).
  size_t samples = 0;
  /// Timings only: best-supported tail percentile (0 = insufficient).
  PerTenThousand tail = 0;
  double tail_value = 0;
  bool is_timing = false;
  std::string note;
};

/// \brief One correctness check's outcome.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// \brief Everything a workload run reports.
class Report {
 public:
  /// A single measured value or count.
  void Value(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A timing sample: reported as its median plus the highest percentile
  /// with >= 10 samples beyond it, with the sample count.
  void Timing(const std::string& name, std::vector<double> samples,
              const std::string& unit, const std::string& note = "");
  /// One fixed percentile of `samples`, or "insufficient" when fewer than
  /// ten samples lie beyond it.
  void FixedPercentile(const std::string& name, std::vector<double> samples,
                       PerTenThousand p, const std::string& unit,
                       const std::string& note = "");

  /// Records a check; a failed check also counts as a failed op.
  void Expect(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts ops (algorithm calls, jobs, query batches) and failed ones.
  void CountOps(uint64_t attempted, uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A failed call: recorded as a failed check and a failed op.
  void Fail(const std::string& what, const densest::Status& status);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// The traced run's wall-time accounting (per-layer self time table).
  void SetAccount(const std::string& title, const WallAccount& account);

  void Print(FILE* out) const;
  /// Results document; `fingerprint` is rendered as a string map.
  std::string ToJson(const std::map<std::string, std::string>& header) const;

 private:
  void Add(Metric m);

  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, WallAccount>> accounts_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The environment fingerprint: nproc, CPU model, compiler and version,
/// build type, failpoint/tracing compile flags.
std::map<std::string, std::string> EnvironmentFingerprint();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
