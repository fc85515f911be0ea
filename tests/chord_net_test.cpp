// Message-accurate Chord on the Network layer (baseline/chord_net):
// ring invariants under churn, verified end-to-end fetches, shard-count
// invariance, and a zero-churn lookup run through the scenario trial.
#include "baseline/chord_net/chord_net.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "core/stacks.h"
#include "core/system.h"
#include "storage/item.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace churnstore {
namespace {

SystemConfig chord_config(std::uint32_t n, std::int64_t churn_abs,
                          std::uint64_t seed, std::uint32_t shards = 1) {
  SystemConfig cfg;
  cfg.sim.n = n;
  cfg.sim.degree = 8;
  cfg.sim.seed = seed;
  cfg.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  cfg.sim.churn.absolute = churn_abs;
  cfg.sim.edge_dynamics = EdgeDynamics::kRewire;
  cfg.sim.shards = shards;
  return cfg;
}

struct ChordSystem {
  P2PSystem sys;
  ChordNetProtocol* chord;
};

ChordSystem make_chord(const SystemConfig& cfg) {
  auto mod = std::make_unique<ChordNetProtocol>();
  ChordNetProtocol* raw = mod.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(mod));
  return ChordSystem{P2PSystem(cfg, std::move(mods)), raw};
}

TEST(ChordNet, ConvergedRingResolvesEveryLookupWithoutChurn) {
  auto [sys, chord] = make_chord(chord_config(256, 0, 5));
  sys.run_rounds(4);

  Rng rng(17);
  std::vector<ItemId> items;
  for (int i = 0; i < 4; ++i) {
    const ItemId item = mix64(900 + i) | 1;
    ASSERT_TRUE(
        chord->try_store(static_cast<Vertex>(rng.next_below(256)), item));
    items.push_back(item);
  }
  sys.run_rounds(20);
  for (const ItemId item : items) {
    EXPECT_GE(chord->copies_alive(item), 8u) << "replica set incomplete";
  }
  EXPECT_DOUBLE_EQ(chord->ring_consistency(), 1.0);
  EXPECT_EQ(chord->joined_count(), 256u);

  std::vector<std::uint64_t> sids;
  for (int i = 0; i < 12; ++i) {
    sids.push_back(
        chord->begin_search(static_cast<Vertex>(rng.next_below(256)),
                            items[rng.next_below(items.size())]));
  }
  sys.run_rounds(chord->search_timeout());
  for (const std::uint64_t sid : sids) {
    const WorkloadOutcome out = chord->search_outcome(sid);
    EXPECT_TRUE(out.done);
    EXPECT_TRUE(out.fetched) << "zero-churn lookup failed";
  }
  // Routing cost: iterative Chord resolves in O(log n) hops.
  EXPECT_GT(chord->stats().searches_ok, 0u);
  EXPECT_LE(chord->stats().mean_hops(), 10.0) << "hops not logarithmic";
  EXPECT_EQ(chord->stats().searches_failed, 0u);
}

TEST(ChordNet, FetchedValuesMatchStoredBytesUnderChurn) {
  // The payload contract: a search returns the exact bytes the put stored,
  // verified against the content hash — under live churn.
  auto [sys, chord] = make_chord(chord_config(256, 3, 7));
  sys.run_rounds(12);

  Rng rng(23);
  std::vector<std::pair<ItemId, std::vector<std::uint8_t>>> stored;
  for (int i = 0; i < 6; ++i) {
    const ItemId item = mix64(7000 + i) | 1;
    std::vector<std::uint8_t> value(64 + static_cast<std::size_t>(i) * 17);
    for (std::size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<std::uint8_t>(mix64(item + b));
    }
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto creator = static_cast<Vertex>(rng.next_below(256));
      if (chord->is_joined(creator)) {
        ASSERT_TRUE(chord->put(creator, item, value));
        stored.emplace_back(item, std::move(value));
        break;
      }
      sys.run_round();
    }
  }
  ASSERT_EQ(stored.size(), 6u);
  sys.run_rounds(40);  // age under churn

  std::vector<std::uint64_t> sids;
  for (const auto& [item, value] : stored) {
    sids.push_back(
        chord->begin_search(static_cast<Vertex>(rng.next_below(256)), item));
  }
  sys.run_rounds(chord->search_timeout());

  std::size_t fetched = 0;
  for (std::size_t i = 0; i < sids.size(); ++i) {
    const ChordNetProtocol::SearchRec* rec = chord->record(sids[i]);
    ASSERT_NE(rec, nullptr);
    if (!rec->out.fetched) continue;
    ++fetched;
    EXPECT_EQ(rec->value, stored[i].second)
        << "fetched bytes differ from stored bytes for item " << i;
  }
  EXPECT_GE(fetched, 4u) << "too many fetches failed at mild churn";
}

TEST(ChordNet, RingRepairsAndServesLookupsAfterChurnRounds) {
  // k churn rounds at ~1.5% replacement per round: maintenance must keep
  // most of the ring joined, successor lists consistent, and lookups
  // succeeding — the structural invariants behind every cost table.
  auto [sys, chord] = make_chord(chord_config(256, 4, 11));
  Rng rng(31);
  std::vector<ItemId> items;
  sys.run_rounds(8);
  for (int i = 0; i < 4; ++i) {
    const ItemId item = mix64(3000 + i) | 1;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto creator = static_cast<Vertex>(rng.next_below(256));
      if (chord->try_store(creator, item)) {
        items.push_back(item);
        break;
      }
      sys.run_round();
    }
  }
  ASSERT_EQ(items.size(), 4u);
  sys.run_rounds(80);  // k churn rounds

  EXPECT_GE(chord->joined_count(), 150u) << "ring failed to re-absorb churn";
  EXPECT_GE(chord->ring_consistency(), 0.6)
      << "successor lists inconsistent after churn";

  std::vector<std::uint64_t> sids;
  for (int i = 0; i < 16; ++i) {
    sids.push_back(
        chord->begin_search(static_cast<Vertex>(rng.next_below(256)),
                            items[rng.next_below(items.size())]));
  }
  sys.run_rounds(chord->search_timeout());
  std::uint64_t ok = 0, eligible = 0;
  for (const std::uint64_t sid : sids) {
    const WorkloadOutcome out = chord->search_outcome(sid);
    if (out.censored) continue;
    ++eligible;
    ok += out.fetched;
  }
  ASSERT_GT(eligible, 8u);
  EXPECT_GE(static_cast<double>(ok) / static_cast<double>(eligible), 0.5)
      << "lookup success collapsed at mild churn";
}

/// Everything observable from a chord run: Network metrics, protocol
/// counters, per-search outcomes, per-item god views. Bit-equality across
/// shard counts is the ShardContext contract.
struct ChordRun {
  std::uint64_t total_bits = 0, total_messages = 0, dropped = 0;
  std::uint64_t searches_ok = 0, searches_failed = 0, hop_messages = 0;
  std::uint64_t maintenance = 0, transfers = 0, joins = 0;
  std::uint64_t stores_ok = 0, stores_failed = 0;
  std::size_t joined = 0;
  double consistency = 0.0;
  std::vector<std::size_t> copies;
  std::vector<std::tuple<bool, bool, Round>> outcomes;
  double max_bits_mean = 0.0;
};

ChordRun run_chord_net(std::uint32_t n, std::uint32_t shards,
                       ThreadPool* pool) {
  SystemConfig cfg = chord_config(n, static_cast<std::int64_t>(n) / 48, 29,
                                  shards);
  auto built = make_chord(cfg);
  built.sys.set_shard_pool(pool);
  ChordNetProtocol* chord = built.chord;
  P2PSystem& sys = built.sys;

  Rng rng(41);
  sys.run_rounds(10);
  std::vector<ItemId> items;
  for (int i = 0; i < 3; ++i) {
    const ItemId item = mix64(5000 + i) | 1;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto creator = static_cast<Vertex>(rng.next_below(n));
      if (chord->try_store(creator, item)) {
        items.push_back(item);
        break;
      }
      sys.run_round();
    }
  }
  sys.run_rounds(30);
  std::vector<std::uint64_t> sids;
  for (int i = 0; i < 8 && !items.empty(); ++i) {
    sids.push_back(
        chord->begin_search(static_cast<Vertex>(rng.next_below(n)),
                            items[rng.next_below(items.size())]));
  }
  sys.run_rounds(chord->search_timeout());

  ChordRun run;
  const Metrics& m = sys.metrics();
  run.total_bits = m.total_bits();
  run.total_messages = m.total_messages();
  run.dropped = m.dropped_messages();
  const auto& st = chord->stats();
  run.searches_ok = st.searches_ok;
  run.searches_failed = st.searches_failed;
  run.hop_messages = st.hop_messages;
  run.maintenance = st.maintenance_messages;
  run.transfers = st.transfers;
  run.joins = st.joins_completed;
  run.stores_ok = st.stores_ok;
  run.stores_failed = st.stores_failed;
  run.joined = chord->joined_count();
  run.consistency = chord->ring_consistency();
  for (const ItemId item : items) run.copies.push_back(chord->copies_alive(item));
  for (const std::uint64_t sid : sids) {
    const WorkloadOutcome out = chord->search_outcome(sid);
    run.outcomes.emplace_back(out.located, out.fetched, out.fetched_round);
  }
  run.max_bits_mean = m.max_bits_per_node_round().mean();
  return run;
}

void expect_identical(const ChordRun& a, const ChordRun& b) {
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.searches_ok, b.searches_ok);
  EXPECT_EQ(a.searches_failed, b.searches_failed);
  EXPECT_EQ(a.hop_messages, b.hop_messages);
  EXPECT_EQ(a.maintenance, b.maintenance);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.stores_ok, b.stores_ok);
  EXPECT_EQ(a.stores_failed, b.stores_failed);
  EXPECT_EQ(a.joined, b.joined);
  EXPECT_DOUBLE_EQ(a.consistency, b.consistency);
  EXPECT_EQ(a.copies, b.copies);
  EXPECT_EQ(a.outcomes, b.outcomes) << "search outcomes diverged";
  EXPECT_DOUBLE_EQ(a.max_bits_mean, b.max_bits_mean);
}

TEST(ChordNetSharded, SInOneThreeSixteenIsBitIdentical) {
  // The whole protocol — maintenance ticks, semi-recursive routing, replica
  // leases, store acks — under churn, S in {1, 3, 16} with a real pool and
  // an uneven n. Sharding must be invisible.
  ThreadPool pool(4);
  const ChordRun s1 = run_chord_net(194, 1, nullptr);
  ASSERT_GT(s1.searches_ok, 0u) << "no lookup succeeded; test is vacuous";
  ASSERT_GT(s1.joins, 0u) << "no churn-driven joins exercised";
  const ChordRun s3 = run_chord_net(194, 3, &pool);
  const ChordRun s16 = run_chord_net(194, 16, &pool);
  expect_identical(s1, s3);
  expect_identical(s1, s16);
}

TEST(BitChargeConservation, ChordNetMessageTotalsMatchGolden) {
  // Golden totals for the chord message types (lookups with dead-hop
  // tails, stabilize replies carrying successor lists, notifies, fetch and
  // transfer payload blobs, store acks) on exactly the run_chord_net
  // config: size_bits() must stay storage-independent for the new wire
  // formats, like the paper-stack golden in sharded_engine_test.cpp.
  const ChordRun run = run_chord_net(194, 1, nullptr);
  EXPECT_EQ(run.total_bits, 45136064u);
  EXPECT_EQ(run.total_messages, 36688u);
  EXPECT_EQ(run.dropped, 3826u);
}

TEST(ChordNetStack, StoreSearchTrialResolvesEveryLookupAtZeroChurn) {
  // Through the generic store -> age -> search trial, every lookup routes
  // hop by hop as charged messages and every one resolves at zero churn.
  const ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"protocol=chord", "n=128", "trials=1", "items=2", "searches=6",
           "batches=1", "age-taus=1", "churn-mult=0"}));
  const StoreSearchResult res = run_store_search_trial(spec);
  EXPECT_GT(res.searches, 0u);
  EXPECT_DOUBLE_EQ(res.locate_rate(), 1.0) << "failed lookups at zero churn";
  EXPECT_DOUBLE_EQ(res.availability.mean(), 1.0);
}

TEST(ChordNetStack, BuildStackBuildsChordNetProtocol) {
  BuiltSystem built = build_stack("chord", chord_config(64, 0, 3), {});
  EXPECT_NE(built.system->find_protocol<ChordNetProtocol>(), nullptr);
}

}  // namespace
}  // namespace churnstore
