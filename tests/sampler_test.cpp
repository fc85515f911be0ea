#include "walk/sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "util/heap_sentinel.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

using Sources = std::vector<PeerId>;

Sources sources(SampleView view) { return Sources(view.begin(), view.end()); }

/// recent_distinct through a fresh PeerList, as a vector to compare.
Sources distinct(const VertexSamples& samples, std::size_t k,
                 std::span<const PeerId> exclude = {}) {
  PeerList out;
  samples.recent_distinct(k, out, exclude);
  return out.to_vector();
}

/// A store over n vertices in `shards` shards, one page per
/// 2^page_shift vertices.
struct Store {
  ShardPlan plan;
  SampleStore store;

  Store(std::uint32_t n, std::uint32_t shards, std::uint32_t page_shift,
        Round window, std::uint32_t per_vertex = 2)
      : plan(n, shards) {
    store.attach(plan, page_shift, window, per_vertex);
  }

  /// Files everything staged since the last round as round r, shard by
  /// shard, the way TokenSoup's merge does.
  void file(Round r) {
    for (std::uint32_t s = 0; s < plan.count(); ++s) store.file(s, r);
    store.end_round(r);
    store.begin_round();
  }

  [[nodiscard]] VertexSamples at(Vertex v, Round born = 0) const {
    return store.samples(v, born);
  }
};

TEST(SampleStore, GroupsByRound) {
  Store s(4, 1, 16, /*window=*/8);
  s.store.stage(0, 2, 100);
  s.store.stage(0, 2, 101);
  s.file(1);
  s.file(2);  // no arrivals
  s.store.stage(0, 2, 102);
  s.file(3);
  const VertexSamples got = s.at(2);
  EXPECT_EQ(got.count_at(1), 2u);
  EXPECT_EQ(got.count_at(2), 0u);
  EXPECT_EQ(got.count_at(3), 1u);
  EXPECT_EQ(got.count_at(4), 0u) << "rounds past the newest are empty";
  EXPECT_EQ(got.total(), 3u);
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(sources(got.at(1)), (Sources{100, 101}));
  EXPECT_EQ(sources(got.at(3)), (Sources{102}));
  EXPECT_TRUE(s.at(1).empty()) << "a vertex with no arrivals";
  EXPECT_TRUE(s.at(3).empty());
}

TEST(ShardedArrivalsCohorts, ApplyMergesInCanonicalSourceOrder) {
  // Same destination vertex fed from three source shards; filing merges
  // them into one cohort in canonical order: ascending source shard,
  // staging order within a shard.
  Store s(6, 3, 16, /*window=*/4);
  s.store.stage(2, /*dst=*/1, /*source=*/300);
  s.store.stage(0, 1, 100);
  s.store.stage(0, 1, 101);
  s.store.stage(1, 1, 200);
  s.store.stage(1, 4, 201);
  s.file(9);
  EXPECT_EQ(sources(s.at(1).at(9)), (Sources{100, 101, 200, 300}));
  EXPECT_EQ(sources(s.at(4).at(9)), (Sources{201}));
  s.file(10);
  EXPECT_TRUE(s.at(1).at(10).empty()) << "begin_round empties the staging";
  EXPECT_EQ(s.at(1).total(), 4u);
}

TEST(ShardedArrivalsCohorts, StraddleBucketAppliedByBothSidesFilesOnce) {
  // n = 8 in 3 shards ([0,3), [3,6), [6,8)) with 4-vertex pages (the
  // staging buckets): page 0 straddles shards 0 and 1, page 1 straddles
  // shards 1 and 2. Both sides of a straddle read the page; each must file
  // only its own vertices, so every arrival lands exactly once and in
  // canonical order.
  Store s(8, 3, /*page_shift=*/2, /*window=*/4);
  s.store.stage(1, /*dst=*/1, /*source=*/500);
  s.store.stage(0, 1, 400);
  s.store.stage(0, 3, 401);
  s.store.stage(2, 5, 501);
  s.store.stage(1, 6, 600);
  s.store.stage(0, 2, 402);
  s.store.stage(2, 2, 502);
  const std::size_t staged = 7;
  s.file(3);
  EXPECT_EQ(sources(s.at(1).at(3)), (Sources{400, 500}));
  EXPECT_EQ(sources(s.at(2).at(3)), (Sources{402, 502}));
  EXPECT_EQ(sources(s.at(3).at(3)), (Sources{401}));
  EXPECT_EQ(sources(s.at(5).at(3)), (Sources{501}));
  EXPECT_EQ(sources(s.at(6).at(3)), (Sources{600}));
  std::size_t filed = 0;
  for (Vertex v = 0; v < 8; ++v) filed += s.at(v).total();
  EXPECT_EQ(filed, staged);
}

TEST(SampleStore, RetentionKeepsKeepFromAndHidesTheRetiredSlot) {
  // window = 4: after round r the visible rounds are [r - 4, r], and the
  // ring has 6 slots, so round r - 5 is retired but still sits in its slot
  // until round r + 1 overwrites it. It must read empty all the same.
  Store s(2, 1, 16, /*window=*/4);
  ASSERT_EQ(s.store.slots(), 6u);
  for (Round r = 1; r <= 10; ++r) {
    s.store.stage(0, 0, static_cast<PeerId>(10 * r));
    s.file(r);
  }
  const VertexSamples at10 = s.at(0);
  EXPECT_EQ(sources(at10.at(6)), (Sources{60})) << "keep_from is kept";
  EXPECT_TRUE(at10.at(5).empty()) << "retired, not yet overwritten";
  EXPECT_TRUE(at10.at(4).empty()) << "overwritten by round 10";
  EXPECT_EQ(at10.total(), 5u);
  s.store.stage(0, 0, 110);
  s.file(11);
  const VertexSamples at11 = s.at(0);
  EXPECT_TRUE(at11.at(6).empty());
  EXPECT_EQ(sources(at11.at(7)), (Sources{70}));
  EXPECT_EQ(sources(at11.at(11)), (Sources{110}));
  EXPECT_EQ(at11.total(), 5u);
}

TEST(SampleStore, UnfiledRoundReadsEmpty) {
  // A round the soup did not step leaves its slot holding an older round;
  // the slot's round tag keeps that stale data out.
  Store s(2, 1, 16, /*window=*/2);  // 4 slots
  for (Round r = 1; r <= 4; ++r) {
    s.store.stage(0, 0, static_cast<PeerId>(r));
    s.file(r);
  }
  s.store.stage(0, 0, 6);
  s.file(6);  // round 5 skipped: its slot still holds round 1
  const VertexSamples got = s.at(0);
  EXPECT_TRUE(got.at(5).empty());
  EXPECT_EQ(sources(got.at(4)), (Sources{4}));
  EXPECT_EQ(sources(got.at(6)), (Sources{6}));
  EXPECT_EQ(got.total(), 2u);
}

TEST(SampleStore, BirthRoundHidesEarlierRounds) {
  Store s(2, 1, 16, /*window=*/8);
  for (Round r = 1; r <= 5; ++r) {
    s.store.stage(0, 0, static_cast<PeerId>(r));
    s.file(r);
  }
  const VertexSamples born4 = s.at(0, /*born=*/4);
  EXPECT_TRUE(born4.at(3).empty());
  EXPECT_EQ(born4.count_at(4), 1u);
  EXPECT_EQ(born4.total(), 2u);
  EXPECT_EQ(distinct(born4, 0), (Sources{5, 4}));
  EXPECT_TRUE(s.at(0, /*born=*/6).empty()) << "joined after the newest round";
  EXPECT_EQ(s.at(0, /*born=*/0).total(), 5u);
}

TEST(SampleStore, ChurnedVertexSeesOnlyItsBirthRoundOnward) {
  // Through the soup: right after begin_round churns a vertex, every round
  // before its birth is invisible; the arrivals the soup files in the churn
  // round itself are the new peer's first samples.
  SimConfig cfg;
  cfg.n = 64;
  cfg.degree = 8;
  cfg.seed = 5;
  cfg.churn.kind = AdversaryKind::kUniform;
  cfg.churn.absolute = 8;
  cfg.shards = 4;
  Network net(cfg);
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  const std::vector<Vertex> churned = net.begin_round();
  ASSERT_FALSE(churned.empty());
  const Round born = net.round();
  for (const Vertex v : churned) {
    EXPECT_EQ(net.birth_round(v), born);
    EXPECT_TRUE(soup.samples(v).empty()) << "vertex " << v;
    EXPECT_TRUE(distinct(soup.samples(v), 0).empty());
  }
  soup.step();
  std::size_t fresh = 0;
  for (const Vertex v : churned) {
    const VertexSamples got = soup.samples(v);
    EXPECT_EQ(got.total(), got.count_at(born)) << "vertex " << v;
    EXPECT_TRUE(got.at(born - 1).empty());
    fresh += got.count_at(born);
  }
  EXPECT_GT(fresh, 0u) << "the churn round's arrivals are kept";
  net.deliver();
}

TEST(SampleStore, RecentDistinctNewestFirst) {
  Store s(1, 1, 16, /*window=*/8);
  for (Round r = 1; r <= 3; ++r) {
    s.store.stage(0, 0, static_cast<PeerId>(10 * r));
    s.file(r);
  }
  EXPECT_EQ(distinct(s.at(0), 2), (Sources{30, 20}));
  EXPECT_EQ(distinct(s.at(0), 0), (Sources{30, 20, 10}));
}

TEST(SampleStore, RecentDistinctDeduplicates) {
  // Newest round first, each round in its filed (canonical) order.
  Store s(1, 1, 16, /*window=*/8);
  for (const PeerId p : {10, 7}) s.store.stage(0, 0, p);
  s.file(1);
  for (const PeerId p : {20, 7, 8, 20}) s.store.stage(0, 0, p);
  s.file(2);
  for (const PeerId p : {30, 7}) s.store.stage(0, 0, p);
  s.file(3);
  EXPECT_EQ(distinct(s.at(0), 0), (Sources{30, 7, 20, 8, 10}));
  EXPECT_EQ(distinct(s.at(0), 4), (Sources{30, 7, 20, 8}));
}

TEST(SampleStore, RecentDistinctHonorsExclusions) {
  Store s(1, 1, 16, /*window=*/8);
  for (const PeerId p : {1, 2, 3, 2}) s.store.stage(0, 0, p);
  s.file(1);
  for (const PeerId p : {4, 1}) s.store.stage(0, 0, p);
  s.file(2);
  const Sources exclude{2, 4};
  EXPECT_EQ(distinct(s.at(0), 0, exclude), (Sources{1, 3}));
  const PeerId self = 1;
  EXPECT_EQ(distinct(s.at(0), 2, std::span(&self, 1)), (Sources{4, 2}));
  EXPECT_TRUE(distinct(s.at(0), 0, Sources{1, 2, 3, 4}).empty());
}

TEST(SampleStore, RecentDistinctReusesCallerStorageAndNeverCapsK) {
  // 100 distinct sources over two rounds: more than PeerList holds inline,
  // so the request spills instead of stopping at the inline capacity.
  Store s(1, 1, 16, /*window=*/8, /*per_vertex=*/64);
  for (PeerId p = 1; p <= 60; ++p) s.store.stage(0, 0, p);
  s.file(1);
  for (PeerId p = 61; p <= 100; ++p) s.store.stage(0, 0, p);
  s.file(2);
  PeerList out;
  s.at(0).recent_distinct(0, out);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0], 61u) << "newest round first";
  EXPECT_EQ(out[40], 1u);
  s.at(0).recent_distinct(70, out);
  EXPECT_EQ(out.size(), 70u) << "a k past the inline capacity is honoured";
  // A second call replaces the contents; a small request stays inline and
  // so makes no heap call.
  PeerList small;
  const HeapSentinel::Totals before = HeapSentinel::thread_totals();
  s.at(0).recent_distinct(2, small);
  const HeapSentinel::Totals used = HeapSentinel::thread_totals() - before;
  EXPECT_EQ(small.to_vector(), (Sources{61, 62}));
  if (HeapSentinel::available()) {
    EXPECT_EQ(used.allocs, 0u);
  }
  s.at(0).recent_distinct(1, small);
  EXPECT_EQ(small.to_vector(), (Sources{61}));
}

TEST(SampleStore, RingWrapsAround500Rounds) {
  // Rolling window over many laps of the ring: every query stays exact.
  const Round window = 16;
  Store s(3, 2, 16, window);
  for (Round r = 1; r <= 500; ++r) {
    s.store.stage(1, 0, static_cast<PeerId>(2 * r));
    s.store.stage(0, 0, static_cast<PeerId>(2 * r + 1));
    s.store.stage(0, 2, static_cast<PeerId>(r));
    s.file(r);
    const std::size_t kept = static_cast<std::size_t>(std::min(r, window + 1));
    ASSERT_EQ(s.at(0).total(), 2 * kept) << "round " << r;
    ASSERT_EQ(s.at(2).total(), kept) << "round " << r;
  }
  EXPECT_EQ(s.at(0).count_at(500), 2u);
  EXPECT_EQ(s.at(0).count_at(500 - window), 2u);
  EXPECT_EQ(s.at(0).count_at(500 - window - 1), 0u);
  EXPECT_EQ(sources(s.at(0).at(490)), (Sources{981, 980}));
  EXPECT_EQ(sources(s.at(2).at(490)), (Sources{490}));
  EXPECT_TRUE(s.at(1).empty());
}

TEST(SampleStore, OverfullRoundRegrowsItsSlot) {
  // The attach-time sizing is a steady-state estimate, not a limit: a round
  // that overflows it regrows that slot's array and files exactly.
  Store s(4, 2, 16, /*window=*/4, /*per_vertex=*/1);
  Sources want;
  for (PeerId p = 0; p < 500; ++p) {
    s.store.stage(p % 2, 3, 1000 + p);
  }
  for (PeerId p = 0; p < 500; p += 2) want.push_back(1000 + p);
  for (PeerId p = 1; p < 500; p += 2) want.push_back(1000 + p);
  s.store.stage(0, 2, 7);
  s.file(1);
  EXPECT_EQ(sources(s.at(3).at(1)), want);
  EXPECT_EQ(sources(s.at(2).at(1)), (Sources{7}));
}

}  // namespace
}  // namespace churnstore
