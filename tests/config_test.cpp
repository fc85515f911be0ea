#include "net/config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace churnstore {
namespace {

TEST(Config, WalkConstantsGrowLogarithmically) {
  WalkConfig wc;
  const double ratio =
      static_cast<double>(walk_length(1u << 20, wc)) /
      static_cast<double>(walk_length(1u << 10, wc));
  // T = t_mult * ln n: doubling the exponent doubles T.
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Config, CommitteeTargetMatchesHLogN) {
  // h log n with h = 1: round(ln n), floored at 3 for tiny networks.
  for (std::uint32_t n : {8u, 16u, 64u, 1024u, 65536u, 1u << 20}) {
    const auto expected = std::max<std::uint32_t>(
        3, static_cast<std::uint32_t>(
               std::lround(std::log(static_cast<double>(n)))));
    EXPECT_EQ(committee_target(n), expected) << "n=" << n;
  }
  EXPECT_EQ(committee_target(8), 3u);
  EXPECT_EQ(committee_target(1024), 7u);
}

TEST(Config, TreeDepthReachesSqrtNLandmarks) {
  for (std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    const std::uint32_t committee = committee_target(n);
    const std::uint32_t mu = landmark_tree_depth(n, committee);
    // committee * 2^mu must reach sqrt(n) ...
    EXPECT_GE(static_cast<double>(committee) * std::pow(2.0, mu),
              std::sqrt(static_cast<double>(n)))
        << "n=" << n;
    // ... and stay within the paper's O(n^{0.5+delta}) budget per tree path:
    // mu <= (0.5 + delta) log2 n with delta = 0.25 (eq. 4's cap).
    EXPECT_LE(mu, std::ceil(0.75 * std::log2(n))) << "n=" << n;
  }
}

TEST(Config, TreeDepthMonotoneInN) {
  std::uint32_t prev = 0;
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    const std::uint32_t mu = landmark_tree_depth(n, committee_target(n));
    EXPECT_GE(mu + 1, prev) << "n=" << n;  // allow plateaus, not collapses
    prev = mu;
  }
}

TEST(Config, ChurnRateMatchesPaperFormula) {
  ChurnSpec spec;
  spec.kind = AdversaryKind::kUniform;
  spec.multiplier = 4.0;
  for (std::uint32_t n : {512u, 4096u, 32768u}) {
    const double ln_n = std::log(static_cast<double>(n));
    const auto expected = static_cast<std::uint32_t>(
        std::floor(4.0 * n / std::pow(ln_n, 1.5)));
    EXPECT_EQ(spec.per_round(n), std::min(expected, n / 4)) << "n=" << n;
  }
}

TEST(Config, ChurnFractionShrinksWithN) {
  ChurnSpec spec;
  spec.kind = AdversaryKind::kUniform;
  const double f1 =
      static_cast<double>(spec.per_round(1024)) / 1024.0;
  const double f2 =
      static_cast<double>(spec.per_round(65536)) / 65536.0;
  EXPECT_GT(f1, f2);  // churn is n / polylog n: the fraction decays
}

}  // namespace
}  // namespace churnstore
