#include "net/adversary.h"

#include <gtest/gtest.h>

#include <set>

namespace churnstore {
namespace {

std::vector<Round> uniform_births(std::uint32_t n, Round r = 0) {
  return std::vector<Round>(n, r);
}

std::vector<Vertex> select(Adversary& adv, Round r, std::uint32_t count,
                           const std::vector<Round>& births) {
  std::vector<Vertex> out;
  adv.select(r, count, births, out);
  return out;
}

TEST(ChurnSpec, FormulaAndCaps) {
  ChurnSpec spec;
  spec.kind = AdversaryKind::kUniform;
  spec.multiplier = 4.0;
  // 4 * 1024 / ln(1024)^1.5 = 4096 / 6.93^1.5 ~ 224.
  EXPECT_NEAR(spec.per_round(1024), 224, 3);
  // Absolute override.
  spec.absolute = 10;
  EXPECT_EQ(spec.per_round(1024), 10u);
  // Cap at n / 4.
  spec.absolute = 1 << 20;
  EXPECT_EQ(spec.per_round(1024), 256u);
  // kNone means zero.
  spec.kind = AdversaryKind::kNone;
  EXPECT_EQ(spec.per_round(1024), 0u);
}

TEST(Adversary, UniformSelectsDistinctInRange) {
  Adversary adv(AdversaryKind::kUniform, 100, Rng(1));
  const auto births = uniform_births(100);
  for (Round r = 1; r < 50; ++r) {
    const auto picks = select(adv, r, 17, births);
    EXPECT_EQ(picks.size(), 17u);
    std::set<Vertex> dedup(picks.begin(), picks.end());
    EXPECT_EQ(dedup.size(), picks.size());
    for (const auto v : picks) EXPECT_LT(v, 100u);
  }
}

TEST(Adversary, CountCappedAtN) {
  Adversary adv(AdversaryKind::kUniform, 10, Rng(2));
  const auto picks = select(adv, 1, 100, uniform_births(10));
  EXPECT_EQ(picks.size(), 10u);
}

TEST(Adversary, ObliviousDeterminismIndependentOfCaller) {
  // Same adversary seed => identical schedule, regardless of anything the
  // protocol does: this is the pre-commitment property.
  Adversary a(AdversaryKind::kUniform, 64, Rng(9));
  Adversary b(AdversaryKind::kUniform, 64, Rng(9));
  const auto births = uniform_births(64);
  for (Round r = 1; r < 30; ++r) {
    EXPECT_EQ(select(a, r, 8, births), select(b, r, 8, births));
  }
}

TEST(Adversary, BlockSweepIsContiguousAndCyclic) {
  Adversary adv(AdversaryKind::kBlockSweep, 50, Rng(3));
  const auto births = uniform_births(50);
  const auto first = select(adv, 1, 10, births);
  ASSERT_EQ(first.size(), 10u);
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_EQ(first[i], (first[i - 1] + 1) % 50);
  }
  const auto second = select(adv, 2, 10, births);
  EXPECT_EQ(second[0], (first.back() + 1) % 50);
}

TEST(Adversary, RegionRepeatReusesSameVictims) {
  Adversary adv(AdversaryKind::kRegionRepeat, 200, Rng(4));
  const auto births = uniform_births(200);
  std::set<Vertex> all;
  for (Round r = 1; r <= 20; ++r) {
    for (const auto v : select(adv, r, 10, births)) all.insert(v);
  }
  // All picks across 20 rounds come from a fixed region of 2*count = 20.
  EXPECT_LE(all.size(), 20u);
}

TEST(Adversary, OldestFirstPicksOldest) {
  Adversary adv(AdversaryKind::kOldestFirst, 10, Rng(5));
  std::vector<Round> births{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  const auto picks = select(adv, 1, 3, births);
  const std::set<Vertex> got(picks.begin(), picks.end());
  EXPECT_EQ(got, (std::set<Vertex>{7, 8, 9}));
}

TEST(Adversary, YoungestFirstPicksYoungest) {
  Adversary adv(AdversaryKind::kYoungestFirst, 10, Rng(6));
  std::vector<Round> births{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  const auto picks = select(adv, 1, 3, births);
  const std::set<Vertex> got(picks.begin(), picks.end());
  EXPECT_EQ(got, (std::set<Vertex>{0, 1, 2}));
}

TEST(Adversary, NoneSelectsNothing) {
  Adversary adv(AdversaryKind::kNone, 10, Rng(7));
  EXPECT_TRUE(select(adv, 1, 5, uniform_births(10)).empty());
}

}  // namespace
}  // namespace churnstore
