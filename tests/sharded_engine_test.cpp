// The sharded deterministic round engine's core contract: the SAME seed
// produces BIT-IDENTICAL protocol state and results for EVERY shard count,
// serial or on a ThreadPool. Sharding is an execution detail, never a model
// parameter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/chord_net/chord_net.h"
#include "core/experiment.h"
#include "obs/trace.h"
#include "core/runner.h"
#include "core/system.h"
#include "net/network.h"
#include "storage/item.h"
#include "util/rng.h"
#include "util/sharding.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

TEST(ShardPlan, ContiguousRangesPartitionTheVertexSet) {
  for (const std::uint32_t n : {1u, 7u, 64u, 1000u}) {
    for (const std::uint32_t count : {1u, 2u, 3u, 16u, 64u, 2000u}) {
      const ShardPlan plan(n, count);
      EXPECT_LE(plan.count(), std::max(n, 1u));
      EXPECT_EQ(plan.begin(0), 0u);
      EXPECT_EQ(plan.end(plan.count() - 1), n);
      for (std::uint32_t s = 0; s + 1 < plan.count(); ++s) {
        EXPECT_EQ(plan.end(s), plan.begin(s + 1));
        EXPECT_LT(plan.begin(s), plan.end(s)) << "empty shard";
      }
      for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t s = plan.shard_of(v);
        EXPECT_GE(v, plan.begin(s));
        EXPECT_LT(v, plan.end(s));
      }
    }
  }
}

TEST(ShardPlan, FastDivisionIsExactForEveryTestedDivisor) {
  // shard_of runs once per moving token, so it uses the Granlund-Montgomery
  // multiply-shift (FastDiv32) instead of a hardware divide. The method is
  // exact for ALL 32-bit numerators when the magic constant is the round-up
  // of 2^(32+ceil(log2 d))/d; pin that against the boundary values where an
  // off-by-one magic would first show (multiples of d and their neighbors,
  // plus the extremes of the 32-bit range).
  Rng rng(2026);
  std::vector<std::uint32_t> divisors = {1,       2,       3,      4,    5,
                                         6,       7,       9,      16,   17,
                                         31,      32,      33,     100,  255,
                                         256,     257,     1000,   4095, 65535,
                                         65536,   65537,   1u << 20};
  for (int i = 0; i < 50; ++i) {
    divisors.push_back(1 + static_cast<std::uint32_t>(rng.next_below(1u << 24)));
  }
  const std::uint32_t kMax = 0xffffffffu;
  for (const std::uint32_t d : divisors) {
    const FastDiv32 f(d);
    std::vector<std::uint64_t> values = {0, 1, d - 1, d, d + 1,
                                         2ull * d - 1, 2ull * d,
                                         kMax - 1, kMax, kMax / d * d,
                                         kMax / d * d - 1};
    for (int i = 0; i < 200; ++i) values.push_back(rng.next_below(1ull << 32));
    for (const std::uint64_t v64 : values) {
      if (v64 > kMax) continue;
      const auto v = static_cast<std::uint32_t>(v64);
      ASSERT_EQ(f.divide(v), v / d) << "v=" << v << " d=" << d;
    }
  }
  // Default-constructed: identity (divide by 1), used by empty plans.
  EXPECT_EQ(FastDiv32{}.divide(12345u), 12345u);
}

TEST(ThreadPoolHelping, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_helping(hits.size(),
                        [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolHelping, RethrowsTaskExceptionsInsteadOfHanging) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each_helping(16,
                                     [&ran](std::size_t i) {
                                       ++ran;
                                       if (i == 5) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  // The barrier still completed: every index ran despite the throw.
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolHelping, RethrowsTheLowestFailingIndex) {
  // Index 9 throws at once, index 3 only after 30 ms: the rethrown error is
  // index 3's, so a failing run reports the same error whatever the timing.
  ThreadPool pool(4);
  try {
    pool.for_each_helping(16, [](std::size_t i) {
      if (i == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        throw std::runtime_error("index 3");
      }
      if (i == 9) throw std::runtime_error("index 9");
    });
    FAIL() << "an index threw, so for_each_helping must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

TEST(ThreadPoolHelping, NestsInsideTheSamePoolWithoutDeadlock) {
  // The outer loop holds the pool's one slot; each of its indices runs an
  // inner for_each_helping on the SAME pool, which finds the slot taken and
  // runs its indices inline, so the inner loops finish without a free
  // worker.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.for_each_helping(8, [&pool, &total](std::size_t) {
    pool.for_each_helping(16, [&total](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

SimConfig soup_config(std::uint32_t n, std::uint32_t shards) {
  SimConfig c;
  c.n = n;
  c.degree = 8;
  c.seed = 17;
  c.churn.kind = AdversaryKind::kUniform;
  c.churn.absolute = n / 16;
  c.edge_dynamics = EdgeDynamics::kRewire;
  c.shards = shards;
  return c;
}

using ProbeLog = std::vector<std::tuple<std::uint64_t, Vertex, Round>>;

/// One vertex's visible samples as (round, source), oldest round first and
/// each round in filed order.
using SampleLog = std::vector<std::pair<Round, PeerId>>;

/// Runs the soup for 3 tau rounds under churn (plus a few probes) and
/// captures everything observable: per-vertex samples (exact order), live
/// token count, metric counters, probe completions in hook order.
struct SoupRun {
  std::vector<SampleLog> samples;
  std::size_t tokens_alive = 0;
  std::uint64_t completed = 0, lost = 0, queued = 0, spawned = 0;
  RunningStat max_bits;
  ProbeLog probes;
};

SoupRun run_soup(std::uint32_t n, std::uint32_t shards, ThreadPool* pool) {
  Network net(soup_config(n, shards));
  net.set_worker_pool(pool);
  TokenSoup soup(net, WalkConfig{});
  SoupRun run;
  soup.set_probe_hook([&run](std::uint64_t tag, Vertex dst, Round r) {
    run.probes.emplace_back(tag, dst, r);
  });
  const std::uint32_t rounds = 3 * soup.tau();
  for (std::uint32_t i = 0; i < rounds; ++i) {
    net.begin_round();
    if (i == 1) {
      for (Vertex v = 0; v < n; v += 7) soup.inject_probe(v, v, 6);
    }
    soup.step();
    net.deliver();
  }
  for (Vertex v = 0; v < n; ++v) {
    SampleLog& log = run.samples.emplace_back();
    const VertexSamples got = soup.samples(v);
    for (Round r = 0; r <= net.round(); ++r) {
      for (const PeerId src : got.at(r)) log.emplace_back(r, src);
    }
  }
  run.tokens_alive = soup.tokens_alive();
  run.completed = net.metrics().tokens_completed();
  run.lost = net.metrics().tokens_lost();
  run.queued = net.metrics().tokens_queued();
  run.spawned = net.metrics().tokens_spawned();
  run.max_bits = net.metrics().max_bits_per_node_round();
  return run;
}

void expect_identical(const SoupRun& a, const SoupRun& b) {
  EXPECT_EQ(a.tokens_alive, b.tokens_alive);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.spawned, b.spawned);
  EXPECT_DOUBLE_EQ(a.max_bits.mean(), b.max_bits.mean());
  EXPECT_DOUBLE_EQ(a.max_bits.max(), b.max_bits.max());
  EXPECT_EQ(a.probes, b.probes) << "probe hooks fired in a different order";
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t v = 0; v < a.samples.size(); ++v) {
    EXPECT_EQ(a.samples[v], b.samples[v]) << "samples diverged at vertex " << v;
  }
}

TEST(ShardedSoup, SerialShardCountsAreBitIdentical) {
  // shards=1 vs shards=16, both serial: the partition itself must not
  // change anything.
  const SoupRun s1 = run_soup(192, 1, nullptr);
  const SoupRun s16 = run_soup(192, 16, nullptr);
  ASSERT_GT(s1.completed, 0u);
  ASSERT_FALSE(s1.probes.empty());
  expect_identical(s1, s16);
}

TEST(ShardedSoup, ThreadPoolExecutionIsBitIdentical) {
  // shards=16 on a real pool vs shards=1 serial: concurrent execution with
  // cross-shard merges must reproduce the serial run bit for bit.
  ThreadPool pool(4);
  const SoupRun s1 = run_soup(192, 1, nullptr);
  const SoupRun s16 = run_soup(192, 16, &pool);
  expect_identical(s1, s16);
}

TEST(ShardedSoup, UnevenShardCountIsBitIdentical) {
  ThreadPool pool(3);
  const SoupRun a = run_soup(190, 1, nullptr);   // 190 % 7 != 0
  const SoupRun b = run_soup(190, 7, &pool);
  expect_identical(a, b);
}

TEST(SampleCohorts, BuffersAreBitIdenticalForSInOneThreeSixteen) {
  // Each shard files its own vertices' cohorts (one round's arrivals at
  // one vertex) into its own slot array, so the split must be invisible:
  // every vertex's (round, source) list — rounds, sizes, AND the order
  // within each round — is equal across S in {1, 3, 16}, serial and
  // pooled.
  ThreadPool pool(4);
  const SoupRun s1 = run_soup(192, 1, nullptr);
  const SoupRun s3 = run_soup(192, 3, &pool);
  const SoupRun s16 = run_soup(192, 16, &pool);
  ASSERT_GT(s1.completed, 0u);
  expect_identical(s1, s3);
  expect_identical(s1, s16);
}

TEST(ShardedWcScatter, DenseSoupTakesWcPathBitIdenticallyAcrossShardCounts) {
  // At the default density test-sized soups have at most 4 destination
  // pages, so the forward loop pushes straight to the bucket tails. A dense
  // soup (rate_mult=10 at n=1024 -> 69 walks x 17 steps per vertex, 8
  // pages) puts every handoff through the WC table instead. The goldens
  // were recorded with direct pushes forced, so they pin WC staging as
  // pure plumbing; every shard count must reproduce them bit for bit.
  ThreadPool pool(4);
  const std::uint32_t n = 1024;
  WalkConfig dense;
  dense.rate_mult = 10.0;
  for (const std::uint32_t shards : {1u, 3u, 16u}) {
    Network net(soup_config(n, shards));
    net.set_worker_pool(&pool);
    TokenSoup soup(net, dense);
    ASSERT_GT(soup.pages(), 4u) << "dense soup must take the WC path";
    std::uint64_t probes = 0;
    const std::uint32_t rounds = soup.tau() + 4;
    for (std::uint32_t i = 0; i < rounds; ++i) {
      net.begin_round();
      if (i == 1) {
        for (Vertex v = 0; v < n; v += 31, ++probes) {
          soup.inject_probe(v, v, 5);
        }
      }
      soup.step();
      net.deliver();
    }
    // Order-sensitive fold over every vertex's retained samples.
    std::uint64_t fold = 0;
    for (Vertex v = 0; v < n; ++v) {
      for (Round r = 0; r <= net.round(); ++r) {
        for (const PeerId src : soup.samples(v).at(r)) {
          fold = mix64(fold ^ src) + (std::uint64_t{v} << 32) +
                 static_cast<std::uint64_t>(r);
        }
      }
    }
    const auto& m = net.metrics();
    EXPECT_EQ(m.tokens_spawned(), 1625088u) << "S=" << shards;
    EXPECT_EQ(m.tokens_completed(), 176374u) << "S=" << shards;
    EXPECT_EQ(m.tokens_lost(), 721421u) << "S=" << shards;
    EXPECT_EQ(soup.tokens_alive(), 727327u) << "S=" << shards;
    EXPECT_EQ(m.tokens_spawned() + probes,
              m.tokens_completed() + m.tokens_lost() + soup.tokens_alive())
        << "S=" << shards;
    EXPECT_EQ(fold, 0x5e5bc2a27eb4bbebull) << "S=" << shards;
  }
}

TEST(ShardedOutbox, LanesMergeInCanonicalOrderAndChargeSenders) {
  SimConfig cfg = soup_config(64, 4);
  cfg.churn.kind = AdversaryKind::kNone;
  Network net(cfg);
  net.begin_round();
  const PeerId dst = net.peer_at(5);
  auto make = [&](std::uint64_t word) {
    Message m;
    m.src = net.peer_at(0);
    m.dst = dst;
    m.type = MsgType::kProbe;
    m.words = {word};
    return m;
  };
  // Stage out of lane order (as concurrent shards would), plus one serial
  // send, which must come first.
  net.send_sharded(2, /*from=*/40, make(22));
  net.send_sharded(0, /*from=*/1, make(20));
  net.send(0, make(10));
  net.send_sharded(2, /*from=*/41, make(23));
  net.send_sharded(3, /*from=*/60, make(30));
  net.deliver();
  const auto& box = net.inbox(5);
  ASSERT_EQ(box.size(), 5u);
  EXPECT_EQ(box[0].words[0], 10u);  // serial outbox first
  EXPECT_EQ(box[1].words[0], 20u);  // then lanes in ascending shard order
  EXPECT_EQ(box[2].words[0], 22u);
  EXPECT_EQ(box[3].words[0], 23u);
  EXPECT_EQ(box[4].words[0], 30u);
  EXPECT_EQ(net.metrics().total_messages(), 5u);
}

/// Everything observable from a full churnstore-stack run: protocol metric
/// counters, per-search outcomes, god-view item state, and the per-node
/// traffic distribution. Bit-equality of this struct across shard counts is
/// the tentpole contract: committees, landmarks, store, search, and
/// delivery all execute on shard lanes, and none of it may depend on S.
struct StackRun {
  std::uint64_t committees_formed = 0, committees_lost = 0;
  std::uint64_t landmarks_created = 0, landmark_collisions = 0;
  std::uint64_t total_messages = 0, dropped = 0, total_bits = 0;
  std::uint64_t tokens_completed = 0;
  std::vector<std::tuple<Round, Round, bool>> searches;  ///< located/fetched/ok
  std::vector<std::size_t> copies;                       ///< per item
  std::vector<bool> available;
  RunningStat max_bits;
};

StackRun run_full_stack(std::uint32_t n, std::uint32_t shards,
                        ThreadPool* pool, bool erasure) {
  SystemConfig cfg;
  cfg.sim.n = n;
  cfg.sim.degree = 8;
  cfg.sim.seed = 23;
  cfg.sim.churn.kind = AdversaryKind::kUniform;
  cfg.sim.churn.absolute = n / 24;
  cfg.sim.edge_dynamics = EdgeDynamics::kRewire;
  cfg.sim.shards = shards;
  cfg.protocol.use_erasure_coding = erasure;
  P2PSystem sys(cfg);
  sys.set_shard_pool(pool);

  Rng workload(99);
  sys.run_rounds(sys.warmup_rounds());
  std::vector<ItemId> items;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const ItemId item = 1000 + i;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto creator = static_cast<Vertex>(workload.next_below(n));
      if (sys.store_item(creator, item)) {
        items.push_back(item);
        break;
      }
      sys.run_round();
    }
  }
  sys.run_rounds(sys.tau());

  std::vector<std::uint64_t> sids;
  for (std::uint32_t i = 0; i < 6 && !items.empty(); ++i) {
    const ItemId item = items[workload.next_below(items.size())];
    const auto initiator = static_cast<Vertex>(workload.next_below(n));
    sids.push_back(sys.search(initiator, item));
  }
  sys.run_rounds(sys.search_timeout() + 4);

  StackRun run;
  const Metrics& m = sys.metrics();
  run.committees_formed = m.committees_formed();
  run.committees_lost = m.committees_lost();
  run.landmarks_created = m.landmarks_created();
  run.landmark_collisions = m.landmark_collisions();
  run.total_messages = m.total_messages();
  run.dropped = m.dropped_messages();
  run.total_bits = m.total_bits();
  run.tokens_completed = m.tokens_completed();
  run.max_bits = m.max_bits_per_node_round();
  for (const std::uint64_t sid : sids) {
    const SearchStatus* st = sys.search_status(sid);
    run.searches.emplace_back(st->located, st->fetched, st->fetch_ok);
  }
  for (const ItemId item : items) {
    run.copies.push_back(sys.searches().copies_alive(item));
    run.available.push_back(sys.searches().is_available(item));
  }
  return run;
}

void expect_identical(const StackRun& a, const StackRun& b) {
  EXPECT_EQ(a.committees_formed, b.committees_formed);
  EXPECT_EQ(a.committees_lost, b.committees_lost);
  EXPECT_EQ(a.landmarks_created, b.landmarks_created);
  EXPECT_EQ(a.landmark_collisions, b.landmark_collisions);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.tokens_completed, b.tokens_completed);
  EXPECT_DOUBLE_EQ(a.max_bits.mean(), b.max_bits.mean());
  EXPECT_DOUBLE_EQ(a.max_bits.max(), b.max_bits.max());
  EXPECT_EQ(a.searches, b.searches) << "search outcomes diverged";
  EXPECT_EQ(a.copies, b.copies);
  EXPECT_EQ(a.available, b.available);
}

TEST(ShardedFullStack, CommitteesLandmarksSearchAreShardCountInvariant) {
  // The whole churnstore stack — soup, committee refresh cycles, landmark
  // trees, store/search messaging — under churn, S in {1, 3, 16} with a
  // real pool and an uneven shard count (n % 3 != 0, n % 16 != 0).
  ThreadPool pool(4);
  const StackRun s1 = run_full_stack(194, 1, nullptr, false);
  ASSERT_FALSE(s1.searches.empty());
  ASSERT_GT(s1.committees_formed, 0u);
  ASSERT_GT(s1.landmarks_created, 0u);
  std::uint64_t located = 0;
  for (const auto& [loc, fetch, ok] : s1.searches) located += loc >= 0;
  EXPECT_GT(located, 0u) << "no search located anything; test is too weak";
  const StackRun s3 = run_full_stack(194, 3, &pool, false);
  const StackRun s16 = run_full_stack(194, 16, &pool, false);
  expect_identical(s1, s3);
  expect_identical(s1, s16);
}

TEST(BitChargeConservation, TotalsMatchThePreInlineWordRepresentation) {
  // Golden totals recorded with the heap-vector Message representation
  // (before inline words + arena blob spill) on exactly the
  // run_full_stack configs. The storage change must be invisible to the
  // charge model: same total bits, same message count, same drops.
  const StackRun plain = run_full_stack(194, 1, nullptr, false);
  EXPECT_EQ(plain.total_bits, 145997040u);
  EXPECT_EQ(plain.total_messages, 9238u);
  EXPECT_EQ(plain.dropped, 3677u);
  const StackRun erasure = run_full_stack(160, 1, nullptr, true);
  EXPECT_EQ(erasure.total_bits, 156117296u);
  EXPECT_EQ(erasure.total_messages, 32915u);
  EXPECT_EQ(erasure.dropped, 8770u);
}

TEST(ShardedFullStack, ErasureCodedStoreIsShardCountInvariant) {
  // IDA piece exchange rides the committee count/confirm messages; the
  // sharded refresh cycle must reproduce it bit for bit.
  ThreadPool pool(4);
  const StackRun s1 = run_full_stack(160, 1, nullptr, true);
  const StackRun s16 = run_full_stack(160, 16, &pool, true);
  ASSERT_GT(s1.committees_formed, 0u);
  expect_identical(s1, s16);
}

/// Probe protocol for the mixed-stack case: consumes kProbe messages
/// (nothing in the paper stack sends or handles them) and records their
/// arrival order. Its handler runs on the shard lanes behind committee/
/// landmark/store/search/chord and stages each raw arrival per shard;
/// on_dispatch_merge folds them in ascending shard order, so the count and
/// the order hash are independent of the shard count.
class ProbeTap final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "probe-tap";
  }
  void on_attach(Network& net) override {
    Protocol::on_attach(net);
    arrivals_.resize(net.shards().count());
  }
  void on_round_begin() override {
    for (Vertex v = 0; v < net().n(); v += 37) {
      Message m;
      m.src = net().peer_at(v);
      m.dst = net().peer_at((v + 1) % net().n());
      m.type = MsgType::kProbe;
      m.words = {static_cast<std::uint64_t>(v)};
      net().send(v, std::move(m));
    }
  }
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override {
    if (m.type != MsgType::kProbe) return false;
    arrivals_[ctx.shard()].emplace_back(v, m.words[0]);
    return true;
  }
  void on_dispatch_merge() override {
    for (auto& shard : arrivals_) {
      for (const auto& [v, word] : shard) {
        ++seen_;
        order_hash_ =
            mix64(order_hash_ ^ (static_cast<std::uint64_t>(v) << 20) ^ word);
      }
      shard.clear();
    }
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t order_hash() const noexcept {
    return order_hash_;
  }

 private:
  /// Per-shard (vertex, probe word) arrivals of the current dispatch.
  std::vector<std::vector<std::pair<Vertex, std::uint64_t>>> arrivals_;
  std::uint64_t seen_ = 0;
  std::uint64_t order_hash_ = 0;
};

struct MixedRun {
  StackRun stack;  ///< reuses only the metric fields (no searches driven)
  std::uint64_t tap_seen = 0;
  std::uint64_t tap_order = 0;
  std::uint64_t chord_ok = 0;
  std::uint64_t chord_hops = 0;
  std::uint64_t chord_joins = 0;
};

MixedRun run_mixed_chord_stack(std::uint32_t n, std::uint32_t shards,
                               ThreadPool* pool) {
  SystemConfig cfg;
  cfg.sim.n = n;
  cfg.sim.degree = 8;
  cfg.sim.seed = 41;
  cfg.sim.churn.kind = AdversaryKind::kUniform;
  cfg.sim.churn.absolute = n / 24;
  cfg.sim.edge_dynamics = EdgeDynamics::kRewire;
  cfg.sim.shards = shards;
  auto mods = P2PSystem::paper_protocols(cfg);
  auto chord = std::make_unique<ChordNetProtocol>();
  ChordNetProtocol* chord_raw = chord.get();
  mods.push_back(std::move(chord));
  auto tap = std::make_unique<ProbeTap>();
  ProbeTap* tap_raw = tap.get();
  mods.push_back(std::move(tap));
  P2PSystem sys(cfg, std::move(mods));
  sys.set_shard_pool(pool);

  Rng workload(55);
  sys.run_rounds(sys.warmup_rounds());
  for (std::uint32_t i = 0; i < 2; ++i) {
    const ItemId item = 2000 + i;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto creator = static_cast<Vertex>(workload.next_below(n));
      if (sys.store_item(creator, item)) break;
      sys.run_round();
    }
  }
  // Chord traffic rides the same rounds: puts + gets through the DHT while
  // the paper stack stores and the tap probes.
  std::vector<std::uint64_t> chord_sids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const ItemId item = mix64(4000 + i) | 1;
    if (chord_raw->put(static_cast<Vertex>(workload.next_below(n)), item,
                       make_payload(item, 512))) {
      chord_sids.push_back(chord_raw->begin_search(
          static_cast<Vertex>(workload.next_below(n)), item));
    }
  }
  sys.run_rounds(2 * sys.tau());

  MixedRun run;
  const Metrics& m = sys.metrics();
  run.stack.committees_formed = m.committees_formed();
  run.stack.landmarks_created = m.landmarks_created();
  run.stack.total_messages = m.total_messages();
  run.stack.dropped = m.dropped_messages();
  run.stack.total_bits = m.total_bits();
  run.stack.tokens_completed = m.tokens_completed();
  run.stack.max_bits = m.max_bits_per_node_round();
  run.tap_seen = tap_raw->seen();
  run.tap_order = tap_raw->order_hash();
  run.chord_ok = chord_raw->stats().searches_ok;
  run.chord_hops = chord_raw->stats().hop_messages;
  run.chord_joins = chord_raw->stats().joins_completed;
  return run;
}

TEST(MixedDispatchStack, ChordNetPlusChurnstoreRunsFullyShardedAndInvariant) {
  // Every protocol in the mixed stack — churnstore, chord and the probe
  // tap — runs its handlers on the shard lanes. Everything — metrics, tap
  // count/ORDER, chord lookup counters — must be bit-identical for S in
  // {1, 3, 16}, serial or pooled.
  ThreadPool pool(4);
  const MixedRun s1 = run_mixed_chord_stack(194, 1, nullptr);
  ASSERT_GT(s1.tap_seen, 0u) << "probe tap never saw its probes";
  ASSERT_GT(s1.stack.committees_formed, 0u);
  ASSERT_GT(s1.chord_hops, 0u) << "no chord routing traffic; mixed case weak";
  ASSERT_GT(s1.stack.total_messages, s1.tap_seen)
      << "no sharded-protocol traffic; the mixed case is vacuous";
  const MixedRun s3 = run_mixed_chord_stack(194, 3, &pool);
  const MixedRun s16 = run_mixed_chord_stack(194, 16, &pool);
  for (const MixedRun* other : {&s3, &s16}) {
    EXPECT_EQ(s1.tap_seen, other->tap_seen);
    EXPECT_EQ(s1.tap_order, other->tap_order)
        << "probe arrivals merged in a shard-count-dependent order";
    EXPECT_EQ(s1.chord_ok, other->chord_ok);
    EXPECT_EQ(s1.chord_hops, other->chord_hops);
    EXPECT_EQ(s1.chord_joins, other->chord_joins);
    EXPECT_EQ(s1.stack.committees_formed, other->stack.committees_formed);
    EXPECT_EQ(s1.stack.landmarks_created, other->stack.landmarks_created);
    EXPECT_EQ(s1.stack.total_messages, other->stack.total_messages);
    EXPECT_EQ(s1.stack.dropped, other->stack.dropped);
    EXPECT_EQ(s1.stack.total_bits, other->stack.total_bits);
    EXPECT_EQ(s1.stack.tokens_completed, other->stack.tokens_completed);
    EXPECT_DOUBLE_EQ(s1.stack.max_bits.mean(), other->stack.max_bits.mean());
    EXPECT_DOUBLE_EQ(s1.stack.max_bits.max(), other->stack.max_bits.max());
  }
}

ScenarioSpec sharded_spec(std::uint32_t shards) {
  ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=128", "trials=2", "items=1", "searches=3", "batches=1",
           "age-taus=1"}));
  spec.shards = shards;
  return spec;
}

void expect_identical_results(const StoreSearchResult& a,
                              const StoreSearchResult& b) {
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.located, b.located);
  EXPECT_EQ(a.fetched, b.fetched);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_DOUBLE_EQ(a.locate_rounds.mean(), b.locate_rounds.mean());
  EXPECT_DOUBLE_EQ(a.availability.mean(), b.availability.mean());
  EXPECT_DOUBLE_EQ(a.bits_node_round_max.mean(), b.bits_node_round_max.mean());
  EXPECT_DOUBLE_EQ(a.bits_node_round_mean.mean(),
                   b.bits_node_round_mean.mean());
}

TEST(ShardedBaselines, EveryStackIsShardCountInvariantThroughTheRunner) {
  // flooding / k-walker / sqrt-replication / chord all run their round
  // work and message handlers on the shard lanes. All must be S-invariant
  // end to end through the Runner.
  for (const char* protocol :
       {"flooding", "k-walker", "sqrt-replication", "chord"}) {
    ScenarioSpec base = ScenarioSpec::from_cli(
        Cli({"n=128", "trials=2", "items=1", "searches=3", "batches=1",
             "age-taus=1"}));
    base.protocol = protocol;
    ScenarioSpec s16 = base;
    s16.shards = 16;
    Runner serial(RunnerOptions{.threads = 1});
    Runner nested(RunnerOptions{.threads = 4});
    const StoreSearchResult a = serial.store_search(base);
    const StoreSearchResult b = nested.store_search(s16);
    EXPECT_GT(a.searches, 0u) << protocol;
    expect_identical_results(a, b);
    // Two trials hold the pool's slot, so their shard phases ran inline; one
    // trial leaves it free, and its round work and handlers spread over the
    // pool's threads.
    base.trials = 1;
    s16.trials = 1;
    const StoreSearchResult one = serial.store_search(base);
    EXPECT_GT(one.searches, 0u) << protocol;
    expect_identical_results(one, nested.store_search(s16));
  }
}

TEST(ShardedRunner, FullStackStoreSearchIsShardCountInvariant) {
  // End to end through Runner: one thread unsharded vs 16 shards on four
  // threads. The paper stack's behavior (committees, landmarks, search)
  // all sits downstream of the soup's samples, so bit-identity here means
  // the whole round path is shard-invariant.
  Runner serial(RunnerOptions{.threads = 1});
  Runner nested(RunnerOptions{.threads = 4});
  const StoreSearchResult a = serial.store_search(sharded_spec(1));
  const StoreSearchResult b = nested.store_search(sharded_spec(16));
  EXPECT_GT(a.searches, 0u);
  EXPECT_GT(a.fetched, 0u) << "no search fetched its item";
  expect_identical_results(a, b);
  // Two trials hold the pool's slot, so their shard phases ran inline; one
  // trial leaves it free, and its shard phases spread over the pool.
  ScenarioSpec one = sharded_spec(1);
  one.trials = 1;
  ScenarioSpec one16 = sharded_spec(16);
  one16.trials = 1;
  expect_identical_results(serial.store_search(one),
                           nested.store_search(one16));
}

/// Run a traced mixed stack (paper protocols + chord) and return the
/// raw bytes of every TraceEvent the collector drained, in drain order.
std::vector<std::uint8_t> traced_run_bytes(std::uint32_t shards,
                                           ThreadPool* pool) {
  SystemConfig cfg;
  cfg.sim.n = 160;
  cfg.sim.degree = 8;
  cfg.sim.seed = 77;
  cfg.sim.churn.kind = AdversaryKind::kUniform;
  cfg.sim.churn.absolute = cfg.sim.n / 24;
  cfg.sim.edge_dynamics = EdgeDynamics::kRewire;
  cfg.sim.shards = shards;
  auto mods = P2PSystem::paper_protocols(cfg);
  auto chord = std::make_unique<ChordNetProtocol>();
  ChordNetProtocol* chord_raw = chord.get();
  mods.push_back(std::move(chord));
  P2PSystem sys(cfg, std::move(mods));
  sys.set_shard_pool(pool);

  TraceCollector tc(cfg.sim.seed, /*sample_every=*/1);
  tc.bind(sys.network());
  sys.network().set_trace_collector(&tc);
  std::vector<std::uint8_t> bytes;
  tc.set_consumer([&bytes](Round, const TraceEvent* ev, std::size_t count) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(ev);
    bytes.insert(bytes.end(), p, p + count * sizeof(TraceEvent));
  });

  Rng workload(55);
  sys.run_rounds(sys.warmup_rounds());
  for (std::uint32_t i = 0; i < 2; ++i) {
    const ItemId item = 3000 + i;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto creator =
          static_cast<Vertex>(workload.next_below(cfg.sim.n));
      if (sys.store_item(creator, item)) break;
      sys.run_round();
    }
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto v = static_cast<Vertex>(workload.next_below(cfg.sim.n));
    (void)chord_raw->put(v, 9000 + i, {1, 2, 3});
  }
  sys.run_rounds(sys.tau());
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto v = static_cast<Vertex>(workload.next_below(cfg.sim.n));
    (void)sys.search(v, 3000 + (i % 2));
    (void)chord_raw->begin_search(v, 9000 + i);
  }
  sys.run_rounds(sys.search_timeout() + 4);
  sys.network().set_trace_collector(nullptr);
  return bytes;
}

TEST(TracedExport, EventStreamIsBitIdenticalAcrossShardCountsAndPools) {
  // The acceptance pin for sampled request tracing: the drained event
  // stream — ids, rounds, vertices, hop stamps, outcomes, ORDER — is a
  // pure function of the seed, byte for byte, for every shard count,
  // serial or pooled. Trace lanes merge at exactly the message-lane merge
  // points, so this inherits the engine's canonical order or fails loudly.
  ThreadPool pool(4);
  const auto s1 = traced_run_bytes(1, nullptr);
  ASSERT_FALSE(s1.empty())
      << "no trace events recorded: the invariance check is vacuous";
  const auto s3 = traced_run_bytes(3, &pool);
  const auto s16 = traced_run_bytes(16, &pool);
  EXPECT_EQ(s1, s3);
  EXPECT_EQ(s1, s16);
}

TEST(ScenarioSpec, ShardsKeyReachesTheSystemConfig) {
  const ScenarioSpec spec = ScenarioSpec::from_cli(Cli({"shards=16"}));
  EXPECT_EQ(spec.shards, 16u);
  EXPECT_EQ(spec.system_config().sim.shards, 16u);
}

}  // namespace
}  // namespace churnstore
