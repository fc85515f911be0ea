#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace churnstore {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::int64_t>(std::floor(t * static_cast<double>(counts_.size())));
  bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ || other.hi_ != hi_)
    throw std::invalid_argument("Histogram::merge: incompatible layout");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return bin_lo(bin + 1);
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return lo_;
  if (!(q > 0.0)) q = 0.0;  // negative and NaN both mean "the minimum"
  if (q > 1.0) q = 1.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  std::uint64_t acc = 0;
  std::size_t last_nonempty = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) last_nonempty = i;
    acc += counts_[i];
    if (acc > target) return (bin_lo(i) + bin_hi(i)) / 2.0;
  }
  // q == 1: target == total, so the scan consumed every count without ever
  // exceeding the target. The answer is the highest OBSERVED bin — returning
  // hi_ here (the old behavior) invented a value beyond the data whenever
  // all mass sat in lower bins (e.g. a single clamped edge bin).
  return (bin_lo(last_nonempty) + bin_hi(last_nonempty)) / 2.0;
}

void Histogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

}  // namespace churnstore
