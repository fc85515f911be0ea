#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace churnstore {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(37);
  for (std::uint32_t pool : {10u, 100u, 10000u}) {
    for (std::uint32_t k : {1u, 5u, pool / 2, pool}) {
      const auto s = r.sample_without_replacement(pool, k);
      EXPECT_EQ(s.size(), std::min(k, pool));
      std::set<std::uint32_t> dedup(s.begin(), s.end());
      EXPECT_EQ(dedup.size(), s.size());
      for (const auto x : s) EXPECT_LT(x, pool);
    }
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(41);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (c1.next() == c2.next());
  EXPECT_LT(equal, 5);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), 0u);
}

TEST(Rng, StreamRngIsAPureFunctionOfKeyAndStream) {
  // No parent state: the same (key, stream) always yields the same
  // generator, so any number of streams can be forked concurrently (the
  // sharded round engine forks one per (round, vertex)).
  EXPECT_EQ(stream_rng(42, 7).next(), stream_rng(42, 7).next());
  EXPECT_EQ(stream_seed(42, 7), stream_seed(42, 7));
}

TEST(Rng, StreamFillBelowMatchesPerDrawLoop) {
  // The batched API must be draw-for-draw identical to constructing the
  // stream once and calling next_below k times — the walk hot loop relies
  // on this to keep trajectories bit-identical to the per-token code it
  // replaced (no golden re-baselining).
  const std::uint64_t key = mix64(0xfeedface);
  for (const std::uint64_t bound : {1ull, 6ull, 7ull, 8ull, 12ull, 1000ull}) {
    for (const std::uint64_t stream : {0ull, 1ull, 77ull, 1ull << 20}) {
      std::vector<std::uint32_t> batch(257);
      stream_fill_below(key, stream, bound, batch.data(), batch.size());
      Rng ref = stream_rng(key, stream);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch[i], ref.next_below(bound))
            << "bound=" << bound << " stream=" << stream << " i=" << i;
      }
    }
  }
}

TEST(Rng, StreamFillBelowRespectsNonPowerOfTwoBounds) {
  // Lemire rejection must stay unbiased and in-range for bounds that do
  // not divide 2^64 (the vertex degree is usually not a power of two).
  for (const std::uint64_t bound : {3ull, 5ull, 6ull, 7ull, 11ull, 100ull}) {
    std::vector<std::uint32_t> batch(4096);
    stream_fill_below(9, 4, bound, batch.data(), batch.size());
    std::set<std::uint32_t> seen;
    for (const std::uint32_t v : batch) {
      ASSERT_LT(v, bound);
      seen.insert(v);
    }
    // Every residue appears in 4096 draws (bound <= 100).
    EXPECT_EQ(seen.size(), bound);
  }
}

TEST(Rng, StreamRngChildrenAreDistinctPerKeyAndStream) {
  EXPECT_NE(stream_rng(42, 1).next(), stream_rng(42, 2).next());
  EXPECT_NE(stream_seed(42, 3), stream_seed(43, 3));
  // Adjacent streams under adjacent keys stay distinct (the engine uses
  // round as key and vertex as stream; collisions would correlate walks).
  EXPECT_NE(stream_seed(42, 3), stream_seed(42, 4));
  EXPECT_NE(stream_seed(42, 3), stream_seed(41, 3));
}

// Property sweep: uniformity of next_below over several (seed, bound) pairs
// via a loose chi-square bound.
class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, ChiSquareWithinBounds) {
  Rng r(GetParam());
  const std::uint64_t bins = 16;
  const int trials = 32000;
  std::vector<int> counts(bins, 0);
  for (int i = 0; i < trials; ++i) ++counts[r.next_below(bins)];
  const double expected = static_cast<double>(trials) / bins;
  double chi2 = 0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 dof: the 0.001 quantile is ~37.7; allow generous slack.
  EXPECT_LT(chi2, 45.0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity,
                         ::testing::Values(1, 2, 3, 99, 12345, 0xdeadbeef));

}  // namespace
}  // namespace churnstore
