#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/divergence.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace churnstore {
namespace {

TEST(RunningStat, MeanVarianceMatchNaive) {
  Rng r(5);
  std::vector<double> xs;
  RunningStat rs;
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform(-10, 10);
    xs.push_back(x);
    rs.add(x);
  }
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(rs.mean(), mean, 1e-9);
  EXPECT_NEAR(rs.variance(), var, 1e-9);
  EXPECT_EQ(rs.count(), xs.size());
}

TEST(RunningStat, MergeEqualsSequential) {
  Rng r(6);
  RunningStat whole, a, b;
  for (int i = 0; i < 300; ++i) {
    const double x = r.normal();
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.ci95_halfwidth(), 0.0);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Slopes, LinearSlopeExact) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{3, 5, 7, 9};  // slope 2
  EXPECT_NEAR(linear_slope(x, y).value(), 2.0, 1e-12);
}

TEST(Slopes, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double v = 2; v <= 1024; v *= 2) {
    x.push_back(v);
    y.push_back(5.0 * std::pow(v, 1.5));
  }
  EXPECT_NEAR(loglog_slope(x, y).value(), 1.5, 1e-9);
}

TEST(Slopes, NoSlopeWithoutTwoPointsOrSpread) {
  // One point (a single-n sweep) has no slope; reading one as 0.000 would
  // claim constant scaling that nothing measured.
  EXPECT_FALSE(linear_slope({}, {}).has_value());
  EXPECT_FALSE(linear_slope({3.0}, {7.0}).has_value());
  EXPECT_FALSE(linear_slope({2.0, 2.0}, {1.0, 5.0}).has_value())
      << "x without spread";
  EXPECT_FALSE(loglog_slope({1024.0}, {5.0}).has_value());
  // Non-positive points drop out of the log-log fit before the count check.
  EXPECT_FALSE(loglog_slope({256.0, 512.0}, {0.0, 9.0}).has_value());
  EXPECT_FALSE(loglog_slope({256.0, 256.0}, {4.0, 9.0}).has_value());
  // Two distinct points are enough.
  EXPECT_NEAR(linear_slope({1.0, 3.0}, {1.0, 5.0}).value(), 2.0, 1e-12);
}

TEST(Histogram, BinningAndQuantile) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_NEAR(h.quantile(0.05), 0.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 1e-9);
}

TEST(Histogram, QuantileEdgeCases) {
  // Empty histogram: no mass, return the low bound rather than reading
  // past the bins.
  Histogram empty(0, 10, 10);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);

  // All mass in the clamped edge bins.
  Histogram edges(0, 10, 5);
  edges.add(-100);  // clamps to bin 0
  edges.add(100);   // clamps to bin 4
  EXPECT_NEAR(edges.quantile(0.0), 1.0, 1e-9);   // mid of [0,2)
  EXPECT_NEAR(edges.quantile(1.0), 9.0, 1e-9);   // mid of [8,10)

  Histogram h(0, 10, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  // q=0 is the minimum observation's bin; q=1 is the maximum's bin, even
  // when the top bins are empty — never the histogram's hi bound.
  EXPECT_NEAR(h.quantile(0.0), 0.5, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 9.5, 1e-9);
  Histogram low(0, 100, 100);
  low.add(3.5);
  EXPECT_NEAR(low.quantile(1.0), 3.5, 1e-9)
      << "q=1 must find the last non-empty bin, not return hi";

  // Out-of-range and NaN q clamp instead of indexing garbage.
  EXPECT_NEAR(h.quantile(-0.5), h.quantile(0.0), 1e-9);
  EXPECT_NEAR(h.quantile(1.5), h.quantile(1.0), 1e-9);
  EXPECT_NEAR(h.quantile(std::numeric_limits<double>::quiet_NaN()),
              h.quantile(0.0), 1e-9);

  // clear() empties counts but keeps the binning.
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(4.5);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_NEAR(h.quantile(0.5), 4.5, 1e-9);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(100);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0, 10, 5), b(0, 10, 5);
  a.add(1);
  b.add(1);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_THROW(a.merge(Histogram(0, 5, 5)), std::invalid_argument);
}

TEST(Divergence, UniformCountsHaveZeroTvd) {
  std::vector<std::uint64_t> counts(100, 50);
  EXPECT_NEAR(tvd_from_uniform(counts), 0.0, 1e-12);
  EXPECT_NEAR(chi_square_uniform(counts), 0.0, 1e-12);
  const auto rep = uniformity_report(counts);
  EXPECT_NEAR(rep.min_prob_times_n, 1.0, 1e-9);
  EXPECT_NEAR(rep.max_prob_times_n, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(rep.zero_fraction, 0.0);
}

TEST(Divergence, PointMassHasMaximalTvd) {
  std::vector<std::uint64_t> counts(100, 0);
  counts[0] = 1000;
  EXPECT_NEAR(tvd_from_uniform(counts), 0.99, 1e-9);
  const auto rep = uniformity_report(counts);
  EXPECT_NEAR(rep.max_prob_times_n, 100.0, 1e-9);
  EXPECT_NEAR(rep.zero_fraction, 0.99, 1e-9);
}

TEST(Divergence, RandomCountsAreNearUniform) {
  Rng r(77);
  std::vector<std::uint64_t> counts(64, 0);
  for (int i = 0; i < 64 * 1000; ++i) ++counts[r.next_below(64)];
  const auto rep = uniformity_report(counts);
  EXPECT_LT(rep.tvd, 0.05);
  EXPECT_GT(rep.min_prob_times_n, 0.8);
  EXPECT_LT(rep.max_prob_times_n, 1.2);
}

}  // namespace
}  // namespace churnstore
