#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "core/system.h"

namespace churnstore {
namespace {

/// A paper-stack store-search trial at (n, seed), with the default spec's
/// churn and topology.
ScenarioSpec trial_spec(std::uint32_t n, std::uint64_t seed,
                        const StoreSearchOptions& workload = {}) {
  ScenarioSpec spec;
  spec.ns = {n};
  spec.seed = seed;
  spec.workload = workload;
  return spec;
}

TEST(System, DeterministicAcrossRuns) {
  StoreSearchOptions opts;
  opts.items = 2;
  opts.searchers_per_batch = 4;
  opts.batches = 1;
  const auto a = run_store_search_trial(trial_spec(128, 99, opts));
  const auto b = run_store_search_trial(trial_spec(128, 99, opts));
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.located, b.located);
  EXPECT_EQ(a.fetched, b.fetched);
  EXPECT_DOUBLE_EQ(a.locate_rounds.mean(), b.locate_rounds.mean());
  EXPECT_DOUBLE_EQ(a.bits_node_round_max.mean(), b.bits_node_round_max.mean());
}

TEST(System, StoreSearchWorkloadSucceedsAtPaperChurn) {
  // n = 256 with the paper's churn formula (k = 1.5, multiplier tuned to a
  // simulatable ~3% per round).
  StoreSearchOptions opts;
  opts.items = 2;
  opts.searchers_per_batch = 8;
  opts.batches = 2;
  ScenarioSpec spec = trial_spec(256, 4242, opts);
  spec.churn.multiplier = 0.5;
  const auto res = run_store_search_trial(spec);
  EXPECT_GT(res.searches, 0u);
  EXPECT_GE(res.locate_rate(), 0.75)
      << "located " << res.located << "/" << res.searches;
  EXPECT_GE(res.availability.mean(), 0.75);
}

TEST(System, AvailabilityPersistsOverManyTaus) {
  SystemConfig cfg = trial_spec(256, 7).system_config();
  cfg.sim.churn.multiplier = 0.5;
  const auto trace = run_availability_trial(cfg, /*horizon_taus=*/10.0);
  EXPECT_GT(trace.rounds.size(), 10u);
  EXPECT_GE(trace.recoverable_fraction(), 0.99)
      << "first unrecoverable at round " << trace.first_unrecoverable();
  EXPECT_GE(trace.availability_fraction(), 0.7);
  EXPECT_GE(trace.generations, 3u);
}

TEST(System, NoChurnAvailabilityIsPerfect) {
  SystemConfig cfg = trial_spec(128, 7).system_config();
  cfg.sim.churn.kind = AdversaryKind::kNone;
  const auto trace = run_availability_trial(cfg, 6.0);
  EXPECT_DOUBLE_EQ(trace.recoverable_fraction(), 1.0);
}

TEST(System, PerNodeTrafficIsPolylogNotLinear) {
  // Measure the mean per-node bits per round at two network sizes; if
  // traffic were linear in n the ratio would be ~4; polylog keeps it small.
  StoreSearchOptions opts;
  opts.items = 1;
  opts.searchers_per_batch = 2;
  opts.batches = 1;
  const auto small_res = run_store_search_trial(trial_spec(128, 5, opts));
  const auto big_res = run_store_search_trial(trial_spec(512, 5, opts));
  ASSERT_GT(small_res.bits_node_round_mean.mean(), 0.0);
  const double ratio = big_res.bits_node_round_mean.mean() /
                       small_res.bits_node_round_mean.mean();
  EXPECT_LT(ratio, 3.0) << "per-node traffic grew too fast with n";
}

TEST(System, WarmupRoundsMatchTwoTaus) {
  P2PSystem sys(trial_spec(128, 1).system_config());
  EXPECT_EQ(sys.warmup_rounds(), 2 * sys.tau() + 2);
}

TEST(System, RunRoundsAdvancesClock) {
  P2PSystem sys(trial_spec(64, 1).system_config());
  const Round before = sys.round();
  sys.run_rounds(7);
  EXPECT_EQ(sys.round(), before + 7);
}

TEST(System, MostNodesCanSearchSuccessfully) {
  // Down-scaled version of Theorem 4's n - o(n) claim: sample initiators
  // across the network; nearly all locate the item.
  SystemConfig cfg = trial_spec(256, 2026).system_config();
  cfg.sim.churn.multiplier = 0.5;
  P2PSystem sys(cfg);
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_rounds(2 * sys.tau());

  int eligible = 0, located = 0;
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::uint64_t> sids;
    for (int s = 0; s < 6; ++s) {
      const auto initiator = static_cast<Vertex>((batch * 89 + s * 41) % 256);
      sids.push_back(sys.search(initiator, 5));
    }
    sys.run_rounds(sys.search_timeout() + 2);
    for (const auto sid : sids) {
      const SearchStatus* st = sys.search_status(sid);
      if (!st) continue;
      // A node churned out before locating is a censored trial (the paper's
      // guarantee covers nodes that stay); locating before churn counts.
      if (st->initiator_churned && !st->succeeded_locate()) continue;
      ++eligible;
      located += st->succeeded_locate();
    }
  }
  ASSERT_GT(eligible, 6);
  EXPECT_GE(static_cast<double>(located) / eligible, 0.85);
}

}  // namespace
}  // namespace churnstore
