#include "landmark/landmark.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/system.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, std::int64_t churn_abs) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = 5;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  return c;
}

TEST(Landmark, TreeGrowsToSqrtNScale) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  // Creation triggers the first landmark wave at t == 1; the tree then
  // grows one level per round up to depth mu.
  sys.run_rounds(sys.landmarks().tree_depth() + 3);
  const std::size_t live = sys.landmarks().live_count(1);
  const double sqrt_n = std::sqrt(256.0);
  EXPECT_GE(static_cast<double>(live), sqrt_n / 2) << "live=" << live;
  // Upper bound from Lemma 8: |T| in O(n^{0.5+delta} log n).
  const double upper = std::pow(256.0, 0.5 + 0.25) * std::log(256.0);
  EXPECT_LE(static_cast<double>(live), upper);
}

TEST(Landmark, LandmarksKnowTheCommittee) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  sys.run_rounds(sys.landmarks().tree_depth() + 3);
  std::size_t checked = 0;
  sys.landmarks().for_each_landmark(1, [&](Vertex, LandmarkState& st) {
    EXPECT_EQ(st.item, 1u);
    EXPECT_EQ(st.purpose, Purpose::kStorage);
    EXPECT_FALSE(st.committee.empty());
    ++checked;
  });
  EXPECT_GT(checked, 0u);
}

TEST(Landmark, StateExpiresAfterTtl) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  const Round expire_committee = sys.round() + 6;
  // A search committee that dies right away stops rebuilding trees, so its
  // landmarks age out after one TTL.
  ASSERT_TRUE(sys.committees().create(0, 9, Purpose::kSearch, 9,
                                      sys.network().peer_at(0), {},
                                      expire_committee));
  sys.run_rounds(6);
  sys.run_rounds(sys.landmarks().tree_depth());
  const std::size_t live_before = sys.landmarks().live_count(9);
  EXPECT_GT(live_before, 0u);
  sys.run_rounds(sys.landmarks().ttl() + 2);
  EXPECT_EQ(sys.landmarks().live_count(9), 0u);
}

TEST(Landmark, RebuildKeepsPopulationUnderChurn) {
  P2PSystem sys(make_config(256, 12));
  sys.run_rounds(sys.warmup_rounds());
  bool created = false;
  for (int i = 0; i < 10 && !created; ++i) {
    created =
        sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1);
    if (!created) sys.run_round();
  }
  ASSERT_TRUE(created);
  sys.run_rounds(2 * sys.committees().refresh_period());
  // After two full refresh cycles with rebuilds, landmarks exist despite
  // ~5%/round churn.
  EXPECT_GT(sys.landmarks().live_count(1), 0u);
}

TEST(Landmark, ChurnClearsVertexState) {
  P2PSystem sys(make_config(256, 16));
  sys.run_rounds(sys.warmup_rounds());
  bool created = false;
  for (int i = 0; i < 10 && !created; ++i) {
    created =
        sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1);
    if (!created) sys.run_round();
  }
  ASSERT_TRUE(created);
  sys.run_rounds(sys.landmarks().tree_depth() + 2);
  // state_at must never return landmarks on freshly churned vertices.
  const auto churned = sys.network().begin_round();
  for (const Vertex v : churned) {
    EXPECT_EQ(sys.landmarks().state_at(v, 1), nullptr);
  }
  // Complete the round manually to keep the system consistent.
  for (const auto& p : sys.protocols()) p->step();
  sys.network().deliver();
}

TEST(Landmark, CollisionsAreCountedNotFatal) {
  // Tiny network: the tree wants more distinct nodes than exist, so the
  // same vertices get recruited repeatedly within a wave.
  P2PSystem sys(make_config(64, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  sys.run_rounds(2 * sys.committees().refresh_period());
  EXPECT_GT(sys.landmarks().live_count(1), 0u);
  // Collisions occur at this scale; the run must simply survive them.
  EXPECT_GE(sys.metrics().landmark_collisions(), 0u);
}

}  // namespace
}  // namespace churnstore
