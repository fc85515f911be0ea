#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace churnstore {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::optional<double> linear_slope(const std::vector<double>& x,
                                   const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return std::nullopt;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double nn = static_cast<double>(n);
  const double denom = nn * sxx - sx * sx;
  if (denom == 0.0) return std::nullopt;
  return (nn * sxy - sx * sy) / denom;
}

std::optional<double> loglog_slope(const std::vector<double>& x,
                                   const std::vector<double>& y) {
  std::vector<double> lx, ly;
  const std::size_t n = std::min(x.size(), y.size());
  lx.reserve(n);
  ly.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 0 && y[i] > 0) {
      lx.push_back(std::log(x[i]));
      ly.push_back(std::log(y[i]));
    }
  }
  return linear_slope(lx, ly);
}

}  // namespace churnstore
