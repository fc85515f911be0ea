// Why the paper's oblivious-adversary assumption matters: an adversary that
// can SEE committee membership (which the model forbids) destroys the
// protocol at churn volumes an oblivious adversary cannot exploit.
#include <gtest/gtest.h>

#include "core/system.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, AdversaryKind kind,
                         std::int64_t churn_abs) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = 51;
  c.sim.churn.kind = kind;
  c.sim.churn.absolute = churn_abs;
  return c;
}

TEST(AdaptiveAdversary, KillsStoredItemsObliviousCannot) {
  const std::uint32_t n = 256;
  const std::int64_t churn = 6;  // ~2.3% per round: easy for oblivious

  // Oblivious uniform churn at this volume: item survives many periods.
  {
    P2PSystem sys(make_config(n, AdversaryKind::kUniform, churn));
    sys.run_rounds(sys.warmup_rounds());
    for (int i = 0; i < 20 && !sys.store_item(0, 1); ++i) sys.run_round();
    sys.run_rounds(4 * sys.committees().refresh_period());
    EXPECT_TRUE(sys.store().is_recoverable(1))
        << "oblivious churn should be survivable at this volume";
  }

  // Adaptive churn of the same volume, targeting committee members.
  {
    P2PSystem sys(make_config(n, AdversaryKind::kAdaptive, churn));
    sys.enable_adaptive_adversary();
    sys.run_rounds(sys.warmup_rounds());
    for (int i = 0; i < 20 && !sys.store_item(0, 1); ++i) sys.run_round();
    sys.run_rounds(4 * sys.committees().refresh_period());
    EXPECT_FALSE(sys.store().is_recoverable(1))
        << "an adaptive adversary must be able to kill the item";
  }
}

TEST(AdaptiveAdversary, WithoutTargeterFallsBackToUniform) {
  // kAdaptive with no targeter installed degenerates to uniform picks: the
  // run must behave like oblivious churn (survivable).
  P2PSystem sys(make_config(256, AdversaryKind::kAdaptive, 6));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 1); ++i) sys.run_round();
  sys.run_rounds(3 * sys.committees().refresh_period());
  EXPECT_TRUE(sys.store().is_recoverable(1));
}

TEST(AdaptiveAdversary, TargeterReceivesQuotaAndDistinctVictims) {
  SimConfig cfg;
  cfg.n = 64;
  cfg.seed = 9;
  cfg.churn.kind = AdversaryKind::kAdaptive;
  cfg.churn.absolute = 5;
  Network net(cfg);
  std::uint32_t asked = 0;
  net.set_adaptive_targeter([&](AdaptiveTargetQuery& q) {
    asked = q.quota;
    q.victims = {1, 1, 2};  // duplicate must be deduped
  });
  const auto churned = net.begin_round();
  EXPECT_EQ(asked, 5u);
  EXPECT_EQ(churned.size(), 5u);
  std::set<Vertex> dedup(churned.begin(), churned.end());
  EXPECT_EQ(dedup.size(), churned.size());
  EXPECT_TRUE(dedup.count(1));
  EXPECT_TRUE(dedup.count(2));
}

TEST(AdaptiveAdversary, OccupiedVerticesReflectMemberships) {
  P2PSystem sys(make_config(128, AdversaryKind::kNone, 0));
  sys.run_rounds(sys.warmup_rounds());
  EXPECT_TRUE(sys.committees().occupied_vertices(100).empty());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  sys.run_round();
  const auto occupied = sys.committees().occupied_vertices(100);
  EXPECT_GE(occupied.size(), 3u);
  for (const Vertex v : occupied) {
    EXPECT_NE(sys.committees().membership_at(v, 1), nullptr);
  }
}

}  // namespace
}  // namespace churnstore
