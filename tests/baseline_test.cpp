// The network baselines (flooding, sqrt-replication, k-walker) run as
// Protocol modules on the shared P2PSystem driver: no hand-rolled round
// loops, just the protocol-list constructor + run_round.
#include <gtest/gtest.h>

#include <memory>

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
  flood->store(0, 42);
  sys.run_rounds(16);
  EXPECT_DOUBLE_EQ(flood->coverage(42), 1.0);
  EXPECT_TRUE(flood->has_item(200, 42));
}

TEST(Flooding, CoverageDecaysUnderChurnWithoutRefresh) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(256, 16),
                                  {.refresh_period = 0}, &flood);
  flood->store(0, 42);
  sys.run_rounds(12);
  const double full = flood->coverage(42);
  sys.run_rounds(60);
  EXPECT_LT(flood->coverage(42), full);
}

TEST(Flooding, RefreshRestoresCoverage) {
  FloodingStore* flood = nullptr;
  P2PSystem sys = flooding_system(net_config(256, 8),
                                  {.refresh_period = 8}, &flood);
  flood->store(0, 42);
  sys.run_rounds(80);
  EXPECT_GT(flood->coverage(42), 0.85);
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
  const std::size_t placed = repl->store(0, 42);
  EXPECT_GT(placed, 16u);  // ~ sqrt(256 * ln 256) ~ 38
  sys.run_round();  // replicas delivered
  EXPECT_GT(repl->holders_alive(42), placed / 2);

  const auto sid = repl->search(100, 42, /*timeout=*/3 * soup->tau());
  for (std::uint32_t r = 0; r < 3 * soup->tau(); ++r) {
    sys.run_round();
    if (repl->outcome(sid).done) break;
  }
  const auto out = repl->outcome(sid);
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.success);
  EXPECT_GE(out.rounds_taken, 0);
}

TEST(SqrtReplication, HoldersDecayUnderChurn) {
  TokenSoup* soup = nullptr;
  SqrtReplication* repl = nullptr;
  P2PSystem sys = soup_system<SqrtReplication>(
      net_config(256, 12), SqrtReplication::Options{}, &soup, &repl);
  sys.run_rounds(2 * soup->tau());
  std::size_t placed = 0;
  for (int attempt = 0; attempt < 10 && placed == 0; ++attempt) {
    placed = repl->store(0, 42);
    if (placed == 0) sys.run_round();
  }
  ASSERT_GT(placed, 0u);
  sys.run_round();
  const std::size_t initial = repl->holders_alive(42);
  sys.run_rounds(4 * soup->tau());
  // No maintenance: the holder set must strictly decay under churn.
  EXPECT_LT(repl->holders_alive(42), initial);
}

TEST(KWalker, FindsItemWithoutChurn) {
  TokenSoup* soup = nullptr;
  KWalkerSearch* kw = nullptr;
  P2PSystem sys = soup_system<KWalkerSearch>(
      net_config(256, 0), KWalkerSearch::Options{.walkers = 32}, &soup, &kw);
  sys.run_rounds(2 * soup->tau());
  ASSERT_GT(kw->store(0, 42), 0u);
  const auto sid = kw->search(128, 42, /*ttl=*/8 * soup->tau());
  for (std::uint32_t r = 0; r < 8 * soup->tau(); ++r) {
    sys.run_round();
    if (kw->outcome(sid).done) break;
  }
  EXPECT_TRUE(kw->outcome(sid).success);
}

TEST(KWalker, WalkersDieWithChurnedCarriers) {
  TokenSoup* soup = nullptr;
  KWalkerSearch* kw = nullptr;
  P2PSystem sys = soup_system<KWalkerSearch>(
      net_config(128, 16), KWalkerSearch::Options{.walkers = 64}, &soup, &kw);
  sys.run_rounds(2 * soup->tau());
  // Search for an item that does not exist so walkers run out their TTL.
  const auto sid = kw->search(0, 0xDEAD, /*ttl=*/64);
  sys.run_rounds(64);
  const auto out = kw->outcome(sid);
  EXPECT_FALSE(out.success);
  EXPECT_GT(out.walkers_lost, 0u) << "heavy churn must kill some walkers";
}

}  // namespace
}  // namespace churnstore
