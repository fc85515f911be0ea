// Summary statistics used throughout benches and tests: Welford
// mean/variance accumulation, normal-approximation confidence intervals over
// Monte-Carlo trials, and scaling-exponent fits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace churnstore {

/// Numerically stable streaming accumulator (Welford).
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  // sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  /// Half-width of the ~95% normal CI for the mean.
  [[nodiscard]] double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Least-squares slope of log(y) against log(x) over the points with
/// x, y > 0; used to estimate scaling exponents (e.g. "search time grows
/// like log n", "landmarks like sqrt n"). Empty when fewer than two such
/// points remain or their x has no spread: no slope, not a zero one.
[[nodiscard]] std::optional<double> loglog_slope(const std::vector<double>& x,
                                                 const std::vector<double>& y);

/// Ordinary least-squares slope of y against x; empty when there are fewer
/// than two points or x has no spread.
[[nodiscard]] std::optional<double> linear_slope(const std::vector<double>& x,
                                                 const std::vector<double>& y);

}  // namespace churnstore
