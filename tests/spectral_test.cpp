#include "graph/spectral.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/regular_generator.h"
#include "graph/rewirer.h"
#include "util/rng.h"

namespace churnstore {
namespace {

RegularGraph make_cycle(Vertex n) {
  RegularGraph g(n, 2);
  for (Vertex v = 0; v < n; ++v) g.set_edge(v, 1, (v + 1) % n, 0);
  return g;
}

TEST(Spectral, CycleEigenvalueMatchesTheory) {
  // For the n-cycle, the random-walk matrix has eigenvalues cos(2 pi j / n);
  // with even n the second-largest absolute one is |cos(pi)| = 1... the
  // bipartite even cycle has -1. Use an odd cycle where it is cos(pi/n)
  // in absolute value via cos(2 pi floor(n/2) / n).
  const Vertex n = 101;
  const auto g = make_cycle(n);
  Rng rng(1);
  const double lambda =
      second_eigenvalue_estimate(g, rng, SpectralOptions{.iterations = 3000});
  const double expected = std::abs(
      std::cos(2.0 * M_PI * std::floor(n / 2.0) / static_cast<double>(n)));
  const double expected2 = std::cos(2.0 * M_PI / static_cast<double>(n));
  // Power iteration converges to max(|second|, |last|).
  const double truth = std::max(expected, expected2);
  EXPECT_NEAR(lambda, truth, 0.01);
}

TEST(Spectral, EvenCycleIsBipartiteWithLambdaNearOne) {
  const auto g = make_cycle(64);
  Rng rng(2);
  const double lambda =
      second_eigenvalue_estimate(g, rng, SpectralOptions{.iterations = 2000});
  EXPECT_GT(lambda, 0.99);  // eigenvalue -1 from bipartiteness
}

class RandomRegularExpansion
    : public ::testing::TestWithParam<std::pair<Vertex, std::uint32_t>> {};

TEST_P(RandomRegularExpansion, LambdaBoundedAwayFromOne) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * d);
  const auto g = random_regular_graph(n, d, rng);
  const double lambda = second_eigenvalue_estimate(g, rng);
  // Friedman: lambda ~ 2 sqrt(d-1)/d + o(1) for random d-regular graphs.
  const double friedman = 2.0 * std::sqrt(d - 1.0) / d;
  EXPECT_LT(lambda, friedman + 0.15) << "n=" << n << " d=" << d;
  EXPECT_GT(lambda, friedman - 0.2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomRegularExpansion,
                         ::testing::Values(std::pair{256u, 4u},
                                           std::pair{256u, 8u},
                                           std::pair{1024u, 8u},
                                           std::pair{1024u, 12u}));

TEST(Spectral, RewiringPreservesExpansion) {
  // The paper's model demands every G^r be an expander; verify the rewiring
  // Markov chain keeps lambda small across hundreds of rounds.
  Rng rng(77);
  auto g = random_regular_graph(512, 8, rng);
  Rewirer rw(64, rng.fork(1));
  double worst = 0.0;
  for (int round = 0; round < 120; ++round) {
    rw.apply(g);
    if (round % 10 == 0) {
      worst = std::max(worst, second_eigenvalue_estimate(g, rng));
    }
  }
  EXPECT_LT(worst, 0.75);
}

TEST(Spectral, TinyGraphReturnsZero) {
  RegularGraph g;  // n = 0
  Rng rng(1);
  EXPECT_DOUBLE_EQ(second_eigenvalue_estimate(g, rng), 0.0);
}

}  // namespace
}  // namespace churnstore
