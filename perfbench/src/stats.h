// Percentile reporting for the benchmark: a timing is reported as its
// median plus the highest percentile that still has at least ten samples
// beyond it, with the sample count. Percentiles are nearest-rank (an
// observed sample, never an interpolation); one without enough samples
// beyond it is "insufficient", not a guess.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a percentile's rank before the
/// percentile is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// A percentile in parts per ten thousand: 5000 = p50, 9900 = p99,
/// 9990 = p99.9. Integer so rank arithmetic is exact.
using PerTenThousand = uint32_t;

/// The ladder the tail summary climbs: p50, p90, p99, p99.9, p99.99.
inline constexpr PerTenThousand kTailLadder[] = {5000, 9000, 9900, 9990, 9999};

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest
/// r with r / n >= p / 10000. 0 when n == 0.
size_t NearestRank(size_t n, PerTenThousand p);

/// Nearest-rank percentile of `sorted` (ascending) when at least
/// `min_beyond` samples lie above its rank; nullopt otherwise.
std::optional<double> Percentile(const std::vector<double>& sorted,
                                 PerTenThousand p,
                                 size_t min_beyond = kMinSamplesBeyond);

/// Nearest-rank median (the lower middle for an even count); 0 for none.
double Median(std::vector<double> samples);

/// "p99.9"-style label for a ladder entry.
std::string PercentileLabel(PerTenThousand p);

/// \brief Median + best-supported tail of one timing sample.
struct TailSummary {
  size_t count = 0;
  double median = 0;
  /// Highest ladder percentile with >= kMinSamplesBeyond samples beyond
  /// it; 0 when even p50 is unsupported ("insufficient").
  PerTenThousand tail = 0;
  double tail_value = 0;
};

TailSummary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
