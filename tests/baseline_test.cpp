// The network baselines (flooding, sqrt-replication, k-walker) run as
// Protocol modules on the shared P2PSystem driver: no hand-rolled round
// loops, just the protocol-list constructor + run_round.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "baseline/flooding.h"
#include "baseline/kwalker.h"
#include "baseline/sqrt_replication.h"
#include "core/system.h"
#include "net/network.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

SystemConfig net_config(std::uint32_t n, std::int64_t churn_abs) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = 13;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  return c;
}

/// Stack: just the flooding baseline.
P2PSystem flooding_system(const SystemConfig& cfg,
                          FloodingStore::Options options,
                          FloodingStore** flood_out) {
  auto flood = std::make_unique<FloodingStore>(options);
  *flood_out = flood.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(flood));
  return P2PSystem(cfg, std::move(mods));
}

/// Stack: soup + one soup-fed baseline.
template <typename Proto, typename Options>
P2PSystem soup_system(const SystemConfig& cfg, Options options,
                      TokenSoup** soup_out, Proto** proto_out) {
  auto soup = std::make_unique<TokenSoup>(cfg.walk);
  auto proto = std::make_unique<Proto>(*soup, options);
  *soup_out = soup.get();
  *proto_out = proto.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(soup));
  mods.push_back(std::move(proto));
  return P2PSystem(cfg, std::move(mods));
}

TEST(Flooding, FullCoverageInLogRounds) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(256, 0), {}, &flood);
  ASSERT_TRUE(flood->try_store(0, 42));
  sys.run_rounds(16);
  EXPECT_EQ(flood->copies_alive(42), 256u);
}

TEST(Flooding, CoverageDecaysUnderChurnWithoutRefresh) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(256, 16),
                                  {.refresh_period = 0}, &flood);
  ASSERT_TRUE(flood->try_store(0, 42));
  sys.run_rounds(12);
  const std::size_t full = flood->copies_alive(42);
  sys.run_rounds(60);
  EXPECT_LT(flood->copies_alive(42), full);
}

TEST(Flooding, RefreshRestoresCoverage) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(256, 8),
                                  {.refresh_period = 8}, &flood);
  ASSERT_TRUE(flood->try_store(0, 42));
  sys.run_rounds(80);
  EXPECT_GT(static_cast<double>(flood->copies_alive(42)) / 256.0, 0.85);
  // The price: enormous per-node traffic.
  EXPECT_GT(sys.metrics().max_bits_per_node_round().mean(), 8 * 1024.0);
}

TEST(Flooding, ServiceResolvesSearchLocally) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(128, 0), {}, &flood);
  ASSERT_TRUE(flood->try_store(0, 42));
  sys.run_rounds(16);
  const auto sid = flood->begin_search(100, 42);
  sys.run_rounds(flood->search_timeout());
  const WorkloadOutcome out = flood->search_outcome(sid);
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.located);
  EXPECT_TRUE(out.fetched);
}

TEST(SqrtReplication, StoreAndFindWithoutChurn) {
  TokenSoup* soup = nullptr;
  SqrtReplication* repl = nullptr;
  P2PSystem sys = soup_system<SqrtReplication>(
      net_config(256, 0), SqrtReplication::Options{}, &soup, &repl);
  // Warm the soup so the creator has samples.
  sys.run_rounds(2 * soup->tau());
  ASSERT_TRUE(repl->try_store(0, 42));
  sys.run_round();  // replicas delivered
  EXPECT_GT(repl->copies_alive(42), 16u);  // ~ sqrt(256 * ln 256) ~ 38

  const auto sid = repl->begin_search(100, 42);
  const Round start = sys.round();
  for (std::uint32_t r = 0; r < repl->search_timeout(); ++r) {
    sys.run_round();
    if (repl->search_outcome(sid).done) break;
  }
  const WorkloadOutcome out = repl->search_outcome(sid);
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.located);
  EXPECT_GE(out.located_round, start);
}

TEST(SqrtReplication, HoldersDecayUnderChurn) {
  TokenSoup* soup = nullptr;
  SqrtReplication* repl = nullptr;
  P2PSystem sys = soup_system<SqrtReplication>(
      net_config(256, 12), SqrtReplication::Options{}, &soup, &repl);
  sys.run_rounds(2 * soup->tau());
  bool stored = false;
  for (int attempt = 0; attempt < 10 && !stored; ++attempt) {
    stored = repl->try_store(0, 42);
    if (!stored) sys.run_round();
  }
  ASSERT_TRUE(stored);
  sys.run_round();
  const std::size_t initial = repl->copies_alive(42);
  ASSERT_GT(initial, 0u);
  sys.run_rounds(4 * soup->tau());
  // No maintenance: the holder set must strictly decay under churn.
  EXPECT_LT(repl->copies_alive(42), initial);
}

TEST(KWalker, FindsItemWithoutChurn) {
  TokenSoup* soup = nullptr;
  KWalkerSearch* kw = nullptr;
  P2PSystem sys = soup_system<KWalkerSearch>(
      net_config(256, 0), KWalkerSearch::Options{.walkers = 32}, &soup, &kw);
  sys.run_rounds(2 * soup->tau());
  ASSERT_TRUE(kw->try_store(0, 42));
  const auto sid = kw->begin_search(128, 42);
  for (std::uint32_t r = 0; r < kw->search_timeout(); ++r) {
    sys.run_round();
    if (kw->search_outcome(sid).done) break;
  }
  EXPECT_TRUE(kw->search_outcome(sid).located);
}

TEST(KWalker, WalkersDieWithChurnedCarriers) {
  TokenSoup* soup = nullptr;
  KWalkerSearch* kw = nullptr;
  P2PSystem sys = soup_system<KWalkerSearch>(
      net_config(128, 16), KWalkerSearch::Options{.walkers = 64}, &soup, &kw);
  sys.run_rounds(2 * soup->tau());
  // Search for an item that does not exist so walkers run out their TTL.
  const auto sid = kw->begin_search(0, 0xDEAD);
  sys.run_rounds(kw->search_timeout());
  EXPECT_FALSE(kw->search_outcome(sid).located);
  EXPECT_GT(kw->walkers_lost(), 0u) << "heavy churn must kill some walkers";
}

TEST(KWalker, SearchInitiatorChurnIsReportedAsCensored) {
  // A searcher that leaves before locating is censored, as in every other
  // stack, not counted as a miss. Surgical churn kills exactly the queued
  // victims; the item does not exist, so no search can locate.
  SystemConfig cfg = net_config(256, 1);
  cfg.sim.churn.kind = AdversaryKind::kAdaptive;
  cfg.sim.churn.adaptive_pad_uniform = false;
  TokenSoup* soup = nullptr;
  KWalkerSearch* kw = nullptr;
  P2PSystem sys = soup_system<KWalkerSearch>(cfg, KWalkerSearch::Options{},
                                             &soup, &kw);
  std::vector<Vertex> victims;
  sys.network().set_adaptive_targeter([&victims](AdaptiveTargetQuery& q) {
    for (const Vertex v : std::exchange(victims, {})) q.victims.push_back(v);
  });
  sys.run_rounds(2 * soup->tau());
  const auto leaver = kw->begin_search(123, 0xDEAD);
  const auto stayer = kw->begin_search(45, 0xDEAD);
  victims = {123};
  sys.run_rounds(2);
  const WorkloadOutcome left = kw->search_outcome(leaver);
  EXPECT_TRUE(left.done);
  EXPECT_TRUE(left.censored);
  EXPECT_FALSE(left.located);
  EXPECT_FALSE(kw->search_outcome(stayer).done);
  // The searcher that stayed runs out its walkers: a miss, not censored.
  sys.run_rounds(kw->search_timeout());
  const WorkloadOutcome missed = kw->search_outcome(stayer);
  EXPECT_TRUE(missed.done);
  EXPECT_FALSE(missed.censored);
  EXPECT_FALSE(missed.located);
}

}  // namespace
}  // namespace churnstore
