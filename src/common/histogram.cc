#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/random.h"

namespace densest {

Histogram::Histogram(size_t reservoir_capacity)
    : capacity_(reservoir_capacity),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()),
      rng_state_(0x4157e5e2d9ULL) {
  sample_.reserve(std::min<size_t>(capacity_, 1024));
}

void Histogram::Add(double value) {
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
  } else {
    // Vitter's reservoir sampling: keep each prefix element with equal prob.
    uint64_t j = SplitMix64(rng_state_) % count_;
    if (j < capacity_) sample_[j] = value;
  }
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Quantile(double q) const {
  if (sample_.empty()) return 0.0;
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << " min=" << (count_ ? min_ : 0)
     << " p50=" << Quantile(0.5) << " p99=" << Quantile(0.99)
     << " max=" << (count_ ? max_ : 0);
  return os.str();
}

}  // namespace densest
