#include "stats.h"

#include <algorithm>

namespace perfbench {

size_t NearestRank(size_t n, PerTenThousand p) {
  if (n == 0) return 0;
  const uint64_t scaled = static_cast<uint64_t>(n) * p;
  const size_t rank = static_cast<size_t>((scaled + 9999) / 10000);
  return std::clamp<size_t>(rank, 1, n);
}

std::optional<double> Percentile(const std::vector<double>& sorted,
                                 PerTenThousand p, size_t min_beyond) {
  const size_t rank = NearestRank(sorted.size(), p);
  if (rank == 0 || sorted.size() - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

std::string PercentileLabel(PerTenThousand p) {
  std::string digits = std::to_string(p);  // e.g. "9990"
  std::string label = "p" + digits.substr(0, 2);
  std::string fraction = digits.substr(2);
  while (!fraction.empty() && fraction.back() == '0') fraction.pop_back();
  if (!fraction.empty()) label += "." + fraction;
  return label;
}

TailSummary Summarize(std::vector<double> samples) {
  TailSummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = samples[NearestRank(samples.size(), 5000) - 1];
  for (PerTenThousand p : kTailLadder) {
    std::optional<double> v = Percentile(samples, p);
    if (!v) break;
    out.tail = p;
    out.tail_value = *v;
  }
  return out;
}

}  // namespace perfbench
