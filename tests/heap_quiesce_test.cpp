// The heap-quiet steady state, proven end to end: after warm-up, the
// soup-step kernel (begin_round / TokenSoup::step / deliver — exactly the
// loop the ledger's soup workload times) performs ZERO global-heap
// allocations per round, at S=1 and S=16 alike, and so does
// P2PSystem::run_round driving the same soup (the driver's step / deliver
// / dispatch plumbing adds nothing). This is the runtime cross-check of
// shardcheck R6/R7: the linter says hot regions *lexically* cannot
// allocate, the HeapQuiesceScope says the executed rounds *actually*
// didn't. The full paper stack is measured honestly too — its committee /
// landmark / search control planes allocate by design (every such site
// carries a reasoned R6 suppression), so the full-stack test records the
// traffic instead of asserting silence.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "committee/committee.h"
#include "core/system.h"
#include "net/network.h"
#include "obs/trace.h"
#include "shardcheck/shardcheck.h"
#include "util/heap_sentinel.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

namespace {

using churnstore::HeapQuiesceScope;
using churnstore::HeapSentinel;
using churnstore::Network;
using churnstore::P2PSystem;
using churnstore::Protocol;
using churnstore::SystemConfig;
using churnstore::ThreadPool;
using churnstore::TokenSoup;

void run_soup_rounds(Network& net, TokenSoup& soup, std::uint32_t rounds) {
  for (std::uint32_t i = 0; i < rounds; ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
}

std::string shard_count_name(
    const ::testing::TestParamInfo<std::uint32_t>& pinfo) {
  std::string name = "S";
  name += std::to_string(pinfo.param);
  return name;
}

class HeapQuiesceSoup : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapQuiesceSoup, SteadyStateSoupRoundsAreHeapQuiet) {
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: quiet() would be vacuous";
  }
  const std::uint32_t shards = GetParam();
  SystemConfig cfg;
  cfg.sim.n = 1024;
  cfg.sim.seed = 7;
  cfg.sim.shards = shards;

  ThreadPool pool(0);
  Network net(cfg.sim);
  if (shards != 1) net.set_worker_pool(&pool);
  TokenSoup soup(net, cfg.walk);

  // Fill the pipeline past the mixing horizon, plus slack so every lane,
  // queue, and sample buffer has seen its high-water mark.
  run_soup_rounds(net, soup, 2 * soup.tau() + 8);
  ASSERT_GT(soup.tokens_alive(), 0u);

  const HeapQuiesceScope probe;
  constexpr std::uint32_t kRounds = 32;
  run_soup_rounds(net, soup, kRounds);
  const auto d = probe.delta();
  EXPECT_TRUE(probe.quiet())
      << "steady-state soup rounds allocated: " << d.allocs << " allocs / "
      << d.bytes << " bytes over " << kRounds << " rounds at S=" << shards;
}

INSTANTIATE_TEST_SUITE_P(Shards, HeapQuiesceSoup,
                         ::testing::Values(1u, 16u),
                         shard_count_name);

class HeapQuiesceDriver : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapQuiesceDriver, SteadyStateDriverRoundsAreHeapQuiet) {
  // The soup kernel above, driven through P2PSystem::run_round instead of
  // by hand: the driver's per-round plumbing (protocol steps, delivery,
  // sharded dispatch) must add no global-heap traffic of its own.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: heap_stats() would read zero";
  }
  const std::uint32_t shards = GetParam();
  SystemConfig cfg;
  cfg.sim.n = 1024;
  cfg.sim.seed = 7;
  cfg.sim.shards = shards;

  ThreadPool pool(0);
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::make_unique<TokenSoup>(cfg.walk));
  P2PSystem sys(cfg, std::move(mods));
  if (shards != 1) sys.set_shard_pool(&pool);

  sys.run_rounds(2 * sys.tau() + 8);
  ASSERT_GT(sys.soup().tokens_alive(), 0u);

  sys.reset_heap_stats();
  constexpr std::uint32_t kRounds = 32;
  sys.run_rounds(kRounds);
  const churnstore::RoundHeapStats& hs = sys.heap_stats();
  EXPECT_EQ(hs.rounds, kRounds);
  EXPECT_EQ(hs.allocs, 0u)
      << "steady-state driver rounds allocated: " << hs.allocs << " allocs / "
      << hs.bytes << " bytes over " << kRounds << " rounds at S=" << shards;
}

INSTANTIATE_TEST_SUITE_P(Shards, HeapQuiesceDriver,
                         ::testing::Values(1u, 16u),
                         shard_count_name);

class HeapQuiesceHotspot : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapQuiesceHotspot, MovingHotspotsAreHeapQuiet) {
  // Every vertex sends two messages a round from its shard task, all to one
  // hotspot vertex that moves every round. Once every lane and every
  // destination shard has carried that volume, a new hotspot costs no
  // allocation: the pipe files messages into shared per-shard buffers, so
  // no per-vertex buffer has to grow to the hotspot's size.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: quiet() would be vacuous";
  }
  using churnstore::Message;
  using churnstore::MsgType;
  using churnstore::Vertex;
  const std::uint32_t shards = GetParam();
  constexpr std::uint32_t kN = 256;
  SystemConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = 7;
  cfg.sim.shards = shards;
  cfg.sim.churn.kind = churnstore::AdversaryKind::kNone;
  ThreadPool pool(0);
  Network net(cfg.sim);
  if (shards != 1) net.set_worker_pool(&pool);

  Vertex hotspot = 0;
  // Built once: constructing a std::function per round could allocate.
  const std::function<void(std::uint32_t)> send_all = [&](std::uint32_t s) {
    for (Vertex v = net.shards().begin(s); v < net.shards().end(s); ++v) {
      for (std::uint64_t k = 0; k < 2; ++k) {
        Message m;
        m.src = net.peer_at(v);
        m.dst = net.peer_at(hotspot);
        m.type = MsgType::kProbe;
        m.words = {v, k};
        net.send_sharded(s, v, std::move(m));
      }
    }
  };
  std::uint64_t filed = 0;
  const auto round_to = [&](Vertex to) {
    hotspot = to;
    net.begin_round();
    net.run_sharded(send_all);
    net.deliver();
    filed += net.inbox(to).size();
  };

  // Warm-up: a hotspot in every destination shard, twice over, so both of
  // each lane's buffers and every shard's filing bucket reach the volume.
  for (std::uint32_t pass = 0; pass < 2; ++pass) {
    for (std::uint32_t s = 0; s < net.shards().count(); ++s) {
      round_to(net.shards().begin(s));
    }
  }

  constexpr std::uint32_t kRounds = 64;
  filed = 0;
  const HeapQuiesceScope probe;
  for (std::uint32_t r = 0; r < kRounds; ++r) round_to((r * 61 + 5) % kN);
  const auto d = probe.delta();
  EXPECT_TRUE(probe.quiet())
      << "moving hotspots allocated: " << d.allocs << " allocs / " << d.bytes
      << " bytes over " << kRounds << " rounds at S=" << shards;
  EXPECT_EQ(filed, std::uint64_t{kRounds} * 2 * kN)
      << "every message must reach its hotspot";
}

INSTANTIATE_TEST_SUITE_P(Shards, HeapQuiesceHotspot,
                         ::testing::Values(1u, 4u),
                         shard_count_name);

TEST(HeapQuiesceTracing, InstalledAndSampledTracingStaysHeapQuiet) {
  // The PR-9 heap-quiet contract with the tracer in the loop: a bound
  // TraceCollector — first idle (installed, no spans crossing), then with
  // a sampled event burst through BOTH the sharded lanes and the serial
  // path every round — adds zero steady-state global-heap allocations.
  // Lanes are arena-backed, the merged log keeps its capacity across
  // rounds, and histogram adds are O(1) in preallocated bins.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: quiet() would be vacuous";
  }
  using churnstore::make_trace_event;
  using churnstore::mix64;
  using churnstore::RequestClass;
  using churnstore::Round;
  using churnstore::TraceCollector;
  using churnstore::TraceEv;
  using churnstore::TraceEvent;
  using churnstore::Vertex;

  for (const std::uint32_t shards : {1u, 16u}) {
    SystemConfig cfg;
    cfg.sim.n = 1024;
    cfg.sim.seed = 7;
    cfg.sim.shards = shards;
    ThreadPool pool(0);
    Network net(cfg.sim);
    if (shards != 1) net.set_worker_pool(&pool);
    TokenSoup soup(net, cfg.walk);

    TraceCollector tc(cfg.sim.seed, /*sample_every=*/2);
    tc.bind(net);
    net.set_trace_collector(&tc);
    std::uint64_t consumed = 0;
    tc.set_consumer([&consumed](Round, const TraceEvent*, std::size_t count) {
      consumed += count;  // deliberately allocation-free consumer
    });

    const auto traced_round = [&](std::uint64_t salt, bool emit) {
      net.begin_round();
      soup.step();
      if (emit) {
        for (std::uint64_t i = 0; i < 8; ++i) {
          const std::uint64_t id = mix64(salt * 64 + i) | 1;
          if (!tc.sampled(id)) continue;
          net.trace_sharded(
              static_cast<std::uint32_t>(i % net.shards().count()),
              make_trace_event(id, net.round(), static_cast<Vertex>(i), 0, i,
                               RequestClass::kWalkerProbe, TraceEv::kBegin));
          net.trace_serial(
              make_trace_event(id, net.round(), static_cast<Vertex>(i), 3, i,
                               RequestClass::kWalkerProbe, TraceEv::kEndOk));
        }
      }
      net.deliver();
      tc.end_round(net.round());
    };

    // Warm-up: high-water marks for lanes, merged log, and soup queues.
    for (std::uint32_t r = 0; r < 2 * soup.tau() + 8; ++r) {
      traced_round(r, true);
    }

    {
      const HeapQuiesceScope probe;
      for (std::uint32_t r = 0; r < 32; ++r) traced_round(0, false);
      EXPECT_TRUE(probe.quiet())
          << "idle installed tracer allocated " << probe.delta().allocs
          << " times at S=" << shards;
    }
    {
      const std::uint64_t before = consumed;
      const HeapQuiesceScope probe;
      for (std::uint32_t r = 0; r < 32; ++r) traced_round(100 + r, true);
      EXPECT_TRUE(probe.quiet())
          << "sampled tracing allocated " << probe.delta().allocs
          << " times at S=" << shards;
      EXPECT_GT(consumed, before) << "no events crossed; the claim is vacuous";
    }
    net.set_trace_collector(nullptr);
  }
}

/// Sends, from its serial merge hook, one landmark grow per sixteenth vertex
/// the way the committee merge's landmark rebuild does
/// (LandmarkManager::start_tree): seven header words, then the committee's
/// member list, so the words spill past the message's line.
class SerialGrowProbe final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "serial-grow";
  }
  void on_round_merge() override {
    using churnstore::Message;
    using churnstore::MsgType;
    using churnstore::PeerId;
    std::array<PeerId, 16> committee{};
    for (std::size_t i = 0; i < committee.size(); ++i) committee[i] = i + 1;
    for (churnstore::Vertex v = 0; v < net().n(); v += 16) {
      Message msg;
      msg.src = net().peer_at(v);
      msg.dst = net().peer_at((v + 1) % net().n());
      msg.type = MsgType::kLandmarkGrow;
      msg.words = {v, 2, 3, 4, 5, 6, committee.size()};
      msg.words.insert(msg.words.end(), committee.begin(), committee.end());
      net().send(v, std::move(msg));
    }
  }
};

TEST(HeapQuiesceSerialSpill, SerialSendsPastTheInlineWordsAreHeapQuiet) {
  // The round's serial hooks (Protocol::step's prologue and merge, the
  // dispatch merges) spill message words into the serial lane's arena, not
  // the global heap, so a steady stream of long serial sends allocates
  // nothing.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: heap_stats() would read zero";
  }
  SystemConfig cfg;
  cfg.sim.n = 256;
  cfg.sim.seed = 5;
  cfg.sim.shards = 4;
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::make_unique<SerialGrowProbe>());
  P2PSystem sys(cfg, std::move(mods));
  sys.run_rounds(4);
  ASSERT_GT(sys.network().metrics().total_messages(), 0u);

  sys.reset_heap_stats();
  constexpr std::uint32_t kRounds = 8;
  sys.run_rounds(kRounds);
  const churnstore::RoundHeapStats& hs = sys.heap_stats();
  EXPECT_EQ(hs.rounds, kRounds);
  EXPECT_EQ(hs.allocs, 0u) << "serial sends allocated " << hs.allocs
                           << " times over " << kRounds << " rounds";
}

class HeapQuiesceCommittee : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(HeapQuiesceCommittee, CountExchangeRoundIsHeapQuiet) {
  // One storage committee, no churn. In a count-exchange round (t = 1 of a
  // refresh cycle) every member sends its anchor-round walk count to the
  // clique and tallies the counts that beat its own. Once earlier cycles
  // carried the same traffic through the pipe, the round allocates nothing:
  // a member keeps a counter, not a list of its peers' counts, so even a
  // generation's first exchange does not grow anything.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: heap_stats() would read zero";
  }
  using churnstore::CommitteeManager;
  const std::uint32_t shards = GetParam();
  SystemConfig cfg;
  cfg.sim.n = 512;
  cfg.sim.seed = 11;
  cfg.sim.shards = shards;
  cfg.sim.churn.kind = churnstore::AdversaryKind::kNone;

  ThreadPool pool(0);
  auto soup = std::make_unique<TokenSoup>(cfg.walk);
  auto committees = std::make_unique<CommitteeManager>(*soup, cfg.protocol);
  CommitteeManager& cm = *committees;
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(soup));
  mods.push_back(std::move(committees));
  P2PSystem sys(cfg, std::move(mods));
  if (shards != 1) sys.set_shard_pool(&pool);

  sys.run_rounds(sys.warmup_rounds());
  // The creation round is the committee's epoch base; its count exchanges
  // run at base + k * period + 1 for k >= 1.
  const churnstore::Round base = sys.network().round();
  ASSERT_TRUE(cm.create(0, 1, churnstore::Purpose::kStorage, 1,
                        churnstore::kNoPeer, {1, 2, 3}, -1));
  const churnstore::Round exchange = base + 3 * cm.refresh_period() + 1;
  while (sys.network().round() + 1 < exchange) sys.run_round();
  ASSERT_GE(cm.info(1)->generations, 2u) << "the committee must re-form";

  const std::uint64_t sent = sys.network().metrics().total_messages();
  sys.reset_heap_stats();
  sys.run_round();
  const churnstore::RoundHeapStats& hs = sys.heap_stats();
  EXPECT_EQ(hs.rounds, 1u);
  EXPECT_GT(sys.network().metrics().total_messages(), sent)
      << "the round must carry the count exchange";
  EXPECT_EQ(hs.allocs, 0u) << "the count exchange allocated " << hs.allocs
                           << " times (" << hs.bytes << " bytes) at S="
                           << shards;
}

INSTANTIATE_TEST_SUITE_P(Shards, HeapQuiesceCommittee,
                         ::testing::Values(1u, 16u), shard_count_name);

TEST(HeapQuiesceStack, FullStackTrafficIsMeasuredNotAsserted) {
  // The paper stack's control plane (committee elections, landmark tree
  // waves, search bookkeeping) allocates by design; the honest claim is a
  // measured allocs/round figure (EXPERIMENTS.md), not silence. This test
  // pins the P2PSystem::run_round accounting plumbing itself.
  SystemConfig cfg;
  cfg.sim.n = 512;
  cfg.sim.seed = 11;
  P2PSystem sys(cfg);
  sys.run_rounds(4);
  EXPECT_EQ(sys.heap_stats().rounds, 4u);
  sys.reset_heap_stats();
  EXPECT_EQ(sys.heap_stats().rounds, 0u);
  constexpr std::uint32_t kRounds = 8;
  sys.run_rounds(kRounds);
  const churnstore::RoundHeapStats& hs = sys.heap_stats();
  EXPECT_EQ(hs.rounds, kRounds);
  if (HeapSentinel::available()) {
    ::testing::Test::RecordProperty(
        "full_stack_allocs_per_round",
        static_cast<int>(hs.allocs / hs.rounds));
  } else {
    // Degraded sentinel: the fields must read zero (unknown), never junk.
    EXPECT_EQ(hs.allocs, 0u);
    EXPECT_EQ(hs.bytes, 0u);
  }
}

TEST(HeapQuiesceBothWays, UnannotatedGrowthIsCaughtStaticallyAndAtRuntime) {
  // The acceptance pin for the R6 <-> sentinel cross-validation: the same
  // mistake — push_back on an un-annotated member inside a sharded hook —
  // is caught lexically by shardcheck AND observed at runtime by a
  // HeapQuiesceScope around the equivalent execution.
  const auto ds = shardcheck::check_source("src/demo.cpp", R"fix(
struct Demo {
  std::vector<int> items_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    items_.push_back(1);
  }
};
)fix");
  int r6 = 0;
  for (const auto& d : ds) {
    if (d.rule == "R6") ++r6;
  }
  EXPECT_EQ(r6, 1);

  if (HeapQuiesceScope::supported()) {
    std::vector<int> items;  // no reserve: the member the fixture models
    const HeapQuiesceScope probe;
    items.push_back(1);
    EXPECT_FALSE(probe.quiet()) << "runtime sentinel missed the growth";
    EXPECT_GE(probe.delta().allocs, 1u);
  }
}

}  // namespace
