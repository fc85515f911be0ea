// Failure-injection scenarios: each test drives the protocol into a
// specific adverse condition and checks the designed degradation/recovery
// path, rather than the happy path.
#include <gtest/gtest.h>

#include "core/system.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, std::uint64_t seed = 71) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = seed;
  c.sim.churn.kind = AdversaryKind::kNone;
  return c;
}

/// Churns exactly the given vertices (bypassing the adversary) by
/// installing itself as the adaptive adversary's targeter with an absolute
/// budget.
class TargetedChurn {
 public:
  explicit TargetedChurn(P2PSystem& sys) : sys_(sys) {
    sys_.network().set_adaptive_targeter([this](AdaptiveTargetQuery& q) {
      for (const Vertex v : std::exchange(next_, {})) {
        q.victims.push_back(v);
      }
    });
  }
  /// Queue victims for the next round.
  void kill_next_round(std::vector<Vertex> victims) {
    next_ = std::move(victims);
  }

 private:
  P2PSystem& sys_;
  std::vector<Vertex> next_;
};

SystemConfig adaptive_config(std::uint32_t n, std::int64_t budget,
                             std::uint64_t seed = 71) {
  SystemConfig c = make_config(n, seed);
  c.sim.churn.kind = AdversaryKind::kAdaptive;
  c.sim.churn.absolute = budget;
  // Surgical mode: churn exactly the queued victims, nothing else.
  c.sim.churn.adaptive_pad_uniform = false;
  return c;
}

std::vector<Vertex> member_vertices(P2PSystem& sys, std::uint64_t kid) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < sys.n(); ++v) {
    if (sys.committees().membership_at(v, kid)) out.push_back(v);
  }
  return out;
}

TEST(FailureInjection, CommitteeSurvivesLossOfHalfItsMembers) {
  P2PSystem sys(adaptive_config(256, 4));
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {7}, -1));
  sys.run_round();
  auto members = member_vertices(sys, 1);
  ASSERT_GE(members.size(), 6u);
  members.resize(members.size() / 2);
  churn.kill_next_round(members);
  sys.run_round();
  // Half the members are gone; the refresh cycle must replenish.
  sys.run_rounds(2 * sys.committees().refresh_period());
  EXPECT_GT(sys.committees().alive_members(1), 0u);
  EXPECT_GE(sys.committees().info(1)->generations, 1u);
  for (Vertex v = 0; v < sys.n(); ++v) {
    if (const Membership* m = sys.committees().membership_at(v, 1)) {
      EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{7}));
    }
  }
}

TEST(FailureInjection, TotalCommitteeWipeLosesTheItem) {
  P2PSystem sys(adaptive_config(256, 64));
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {7}, -1));
  sys.run_round();
  churn.kill_next_round(member_vertices(sys, 1));
  sys.run_round();
  // Every replica died in one round: the item is unrecoverable forever and
  // the god view must say so (no phantom availability).
  EXPECT_EQ(sys.committees().alive_members(1), 0u);
  sys.run_rounds(2 * sys.committees().refresh_period());
  EXPECT_FALSE(sys.store().is_recoverable(1));
  EXPECT_EQ(member_vertices(sys, 1).size(), 0u);
}

TEST(FailureInjection, SearchInitiatorChurnIsReportedAsCensored) {
  P2PSystem sys(adaptive_config(256, 1));
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_rounds(2 * sys.tau());
  const Vertex initiator = 123;
  const auto sid = sys.search(initiator, 5);
  churn.kill_next_round({initiator});
  sys.run_rounds(3);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->finished);
  EXPECT_TRUE(st->initiator_churned);
  EXPECT_FALSE(st->succeeded_fetch());
}

TEST(FailureInjection, StaleLandmarksDoNotBreakSearch) {
  // Kill the whole committee right after its landmark wave: landmarks now
  // point at dead holders. A search must fail cleanly (no crash, no bogus
  // success) because fetches go nowhere.
  P2PSystem sys(adaptive_config(256, 64));
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_rounds(sys.landmarks().tree_depth() + 3);
  ASSERT_GT(sys.landmarks().live_count(5), 0u);
  churn.kill_next_round(member_vertices(sys, 5));
  sys.run_round();
  const auto sid = sys.search(200, 5);
  sys.run_rounds(sys.search_timeout() + 4);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->finished);
  EXPECT_FALSE(st->succeeded_fetch());
}

TEST(FailureInjection, LeaderLossDuringHandoverIsAbsorbed) {
  // Kill the two best-ranked members exactly in the invite phase for
  // several consecutive cycles; the redundancy + postponed resignation
  // keeps the committee alive.
  P2PSystem sys(adaptive_config(256, 2, /*seed=*/91));
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {7}, -1));
  sys.run_round();
  const std::uint32_t period = sys.committees().refresh_period();
  const Round base = sys.round() - 1;  // epoch_base of the creation
  for (int cycle = 1; cycle <= 3; ++cycle) {
    // Phase t = 2 of each cycle is the invite round; queue the kill for it.
    const Round invite_round = base + cycle * static_cast<Round>(period) + 2;
    while (sys.round() + 1 < invite_round) sys.run_round();
    auto members = member_vertices(sys, 1);
    if (members.size() > 2) members.resize(2);
    churn.kill_next_round(members);
    sys.run_round();
  }
  sys.run_rounds(2 * period);
  EXPECT_GT(sys.committees().alive_members(1), 0u)
      << "committee must survive repeated leader assassination";
}

TEST(FailureInjection, ErasureBelowKPiecesIsUnrecoverable) {
  SystemConfig cfg = adaptive_config(256, 64);
  cfg.protocol.use_erasure_coding = true;
  cfg.protocol.ida_surplus = 2;
  P2PSystem sys(cfg);
  TargetedChurn churn(sys);
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_round();
  // Leave fewer than K piece holders alive.
  auto members = member_vertices(sys, 5);
  std::uint32_t k = 0;
  for (const Vertex v : members) {
    k = sys.committees().membership_at(v, 5)->ida_k;
  }
  ASSERT_GT(k, 1u);
  const std::size_t keep = k - 1;
  members.resize(members.size() - std::min(members.size(), keep));
  churn.kill_next_round(members);
  sys.run_round();
  sys.run_rounds(2 * sys.committees().refresh_period());
  EXPECT_FALSE(sys.store().is_recoverable(5));
}

}  // namespace
}  // namespace churnstore
