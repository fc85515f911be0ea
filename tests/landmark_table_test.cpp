#include "landmark/landmark_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/system.h"
#include "landmark/landmark.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, std::int64_t churn_abs,
                         std::uint32_t shards = 1) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = 11;
  c.sim.shards = shards;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  return c;
}

/// A kLandmarkGrow message laid out as LandmarkManager sends it.
Message grow_msg(std::uint64_t kid, Round wave, std::uint32_t depth,
                 const std::vector<PeerId>& members) {
  Message m;
  m.type = MsgType::kLandmarkGrow;
  const std::uint64_t header[] = {kid,
                                  kid,
                                  static_cast<std::uint64_t>(Purpose::kStorage),
                                  kNoPeer,
                                  depth,
                                  static_cast<std::uint64_t>(wave),
                                  members.size()};
  for (const std::uint64_t w : header) m.words.push_back(w);
  for (const PeerId p : members) m.words.push_back(p);
  return m;
}

/// Hand `m` to v's landmark handler as dispatch does, then merge.
void recruit(P2PSystem& sys, Vertex v, const Message& m) {
  Network& net = sys.network();
  ShardContext ctx(net, net.shards().shard_of(v));
  ASSERT_TRUE(sys.landmarks().on_message(v, m, ctx));
  sys.landmarks().on_dispatch_merge();
}

bool same_ids(std::span<const PeerId> a, const std::vector<PeerId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Vertices whose state_at is live for `kid`, counted one by one.
std::size_t brute_live(const P2PSystem& sys, std::uint64_t kid) {
  std::size_t live = 0;
  for (Vertex v = 0; v < sys.n(); ++v) {
    live += sys.landmarks().state_at(v, kid) != nullptr;
  }
  return live;
}

TEST(LandmarkTable, ChurnHidesTheEarlierPeersEntriesAtOnce) {
  P2PSystem sys(make_config(128, 8, 3));
  sys.run_rounds(4);
  const std::uint64_t kid = 77;
  const std::vector<PeerId> members = {11, 12, 13};
  for (Vertex v = 0; v < sys.n(); ++v) {
    recruit(sys, v, grow_msg(kid, sys.round(), 1, members));
  }
  ASSERT_EQ(sys.landmarks().live_count(kid), sys.n());

  // begin_round churns and nothing else runs yet.
  const std::vector<Vertex> churned = sys.network().begin_round();
  ASSERT_FALSE(churned.empty());
  const auto was_churned = [&](Vertex v) {
    return std::find(churned.begin(), churned.end(), v) != churned.end();
  };
  for (const Vertex v : churned) {
    EXPECT_EQ(sys.landmarks().state_at(v, kid), nullptr);
  }
  EXPECT_EQ(sys.landmarks().live_count(kid), sys.n() - churned.size());
  std::size_t visited = 0;
  sys.landmarks().for_each_landmark(kid, [&](Vertex v, LandmarkState&) {
    EXPECT_FALSE(was_churned(v)) << "v=" << v;
    ++visited;
  });
  EXPECT_EQ(visited, sys.n() - churned.size());

  // A landmark recruited in the churn round belongs to the new peer.
  const Vertex fresh = churned.front();
  recruit(sys, fresh, grow_msg(kid, sys.round(), 1, members));
  const LandmarkState* st = sys.landmarks().state_at(fresh, kid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(same_ids(st->committee, members));
  EXPECT_EQ(sys.landmarks().live_count(kid), sys.n() - churned.size() + 1);
  EXPECT_EQ(brute_live(sys, kid), sys.landmarks().live_count(kid));

  for (const auto& p : sys.protocols()) p->step();
  sys.network().deliver();
}

TEST(LandmarkTable, ReRecruitedChurnedVertexIsListedOnce) {
  // A churned landmark vertex that a later wave recruits again, before any
  // compaction dropped it from the kid index, used to be listed twice.
  P2PSystem sys(make_config(128, 8, 3));
  LandmarkManager& lm = sys.landmarks();
  sys.run_rounds(4);
  // Keep the merge compaction (sweep rounds) out of the next round.
  while ((sys.round() + 1) % lm.ttl() == 0) sys.run_round();
  const std::uint64_t kid = 91;
  const std::vector<PeerId> members = {21, 22};
  for (Vertex v = 0; v < sys.n(); ++v) {
    recruit(sys, v, grow_msg(kid, sys.round(), 1, members));
  }
  const std::uint64_t churn_before = sys.network().churn_events();
  sys.run_round();
  ASSERT_GT(sys.network().churn_events(), churn_before);
  for (Vertex v = 0; v < sys.n(); ++v) {
    recruit(sys, v, grow_msg(kid, sys.round(), 1, members));
  }
  ASSERT_EQ(brute_live(sys, kid), sys.n());
  EXPECT_EQ(lm.live_count(kid), brute_live(sys, kid));
  std::vector<Vertex> visited;
  lm.for_each_landmark(kid, [&](Vertex v, LandmarkState&) {
    visited.push_back(v);
  });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(std::unique(visited.begin(), visited.end()), visited.end());
  EXPECT_EQ(visited.size(), sys.n());
}

TEST(LandmarkTable, ExpiryBoundaryAndSweepTiming) {
  P2PSystem sys(make_config(64, 0));
  LandmarkManager& lm = sys.landmarks();
  const std::uint32_t ttl = lm.ttl();
  // Created in a round r0 with r0 % ttl == 2: neither expiry (r0 + ttl)
  // nor expiry + 1 is a sweep round.
  do {
    sys.run_round();
  } while (sys.round() % ttl != 2);
  const std::uint64_t kid = 41;
  const Vertex kept = 5;
  const Vertex left = 9;
  recruit(sys, kept, grow_msg(kid, sys.round(), 1, {7, 8}));
  recruit(sys, left, grow_msg(kid, sys.round(), 1, {7, 8}));
  const Round expiry = sys.round() + ttl;
  const LandmarkState* first = lm.state_at(kept, kid);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->expiry, expiry);

  while (sys.round() < expiry) sys.run_round();
  EXPECT_EQ(lm.state_at(kept, kid), first);  // now == expiry: still live
  EXPECT_EQ(lm.live_count(kid), 2u);

  sys.run_round();  // now == expiry + 1
  EXPECT_EQ(lm.state_at(kept, kid), nullptr);
  EXPECT_EQ(lm.state_at(left, kid), nullptr);
  EXPECT_EQ(lm.live_count(kid), 0u);
  EXPECT_EQ(lm.table(0).size(), 2u) << "expired entries wait for a sweep";

  // The expired entry still counts as present when a later wave recruits
  // its vertex: overwritten in place, so no second entry. The compaction
  // above dropped the vertex from the kid index, and a present entry is
  // not listed again (the behaviour the per-vertex maps had).
  lm.for_each_landmark(kid, [](Vertex, LandmarkState&) {});
  recruit(sys, kept, grow_msg(kid, sys.round(), 1, {7, 8}));
  EXPECT_EQ(lm.state_at(kept, kid), first);
  EXPECT_EQ(lm.table(0).size(), 2u);
  EXPECT_EQ(lm.live_count(kid), 0u);

  // The next sweep round erases the expired entry, not the renewed one.
  while ((sys.round() + 1) % ttl != 0) sys.run_round();
  EXPECT_EQ(lm.table(0).size(), 2u);
  sys.run_round();
  EXPECT_EQ(lm.table(0).size(), 1u);
  EXPECT_EQ(lm.state_at(kept, kid), first);
}

TEST(LandmarkTable, LaterWaveOverwritesInPlaceAndSameWaveCollides) {
  P2PSystem sys(make_config(128, 0));
  LandmarkManager& lm = sys.landmarks();
  sys.run_rounds(sys.warmup_rounds());  // warm samples: growth finds children
  const Vertex v = 3;
  const std::uint64_t kid = 55;
  const std::vector<PeerId> members = {31, 32, 33};
  recruit(sys, v, grow_msg(kid, sys.round(), 3, members));
  const LandmarkState* st = lm.state_at(v, kid);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->pending_depth, 2u);
  const std::uint64_t created = sys.metrics().landmarks_created();
  sys.run_round();  // grows one level below v
  EXPECT_EQ(st->pending_depth, 0u);
  EXPECT_GT(sys.metrics().landmarks_created(), created);

  const Round wave2 = sys.round();
  const std::vector<PeerId> members2 = {41, 42};
  recruit(sys, v, grow_msg(kid, wave2, 3, members2));
  EXPECT_EQ(lm.state_at(v, kid), st) << "a later wave reuses the entry";
  EXPECT_EQ(st->wave, static_cast<std::uint64_t>(wave2));
  EXPECT_EQ(st->pending_depth, 2u);
  EXPECT_TRUE(same_ids(st->committee, members2));

  const std::uint64_t collisions = sys.metrics().landmark_collisions();
  recruit(sys, v, grow_msg(kid, wave2, 3, members));
  EXPECT_EQ(sys.metrics().landmark_collisions(), collisions + 1);
  EXPECT_TRUE(same_ids(st->committee, members2))
      << "a collision changes nothing";

  const std::uint64_t created2 = sys.metrics().landmarks_created();
  sys.run_round();  // grows again
  EXPECT_EQ(st->pending_depth, 0u);
  EXPECT_GT(sys.metrics().landmarks_created(), created2);
}

TEST(LandmarkTable, ListsAreStoredOncePerKidAndWave) {
  P2PSystem sys(make_config(64, 0));
  LandmarkManager& lm = sys.landmarks();
  sys.run_rounds(2);
  const Round wave = sys.round();
  const std::uint64_t kid = 61;
  const std::vector<PeerId> a = {1, 2, 3, 4};
  const std::vector<PeerId> b = {1, 2, 3, 5};
  recruit(sys, 10, grow_msg(kid, wave, 1, a));
  recruit(sys, 11, grow_msg(kid, wave, 1, a));
  const auto list = [&](Vertex v, std::uint64_t k) {
    return lm.state_at(v, k)->committee;
  };
  EXPECT_EQ(list(10, kid).data(), list(11, kid).data());
  EXPECT_EQ(lm.table(0).stored_ids(), a.size());

  recruit(sys, 12, grow_msg(kid, wave, 1, b));
  EXPECT_NE(list(12, kid).data(), list(10, kid).data());
  EXPECT_TRUE(same_ids(list(12, kid), b));
  EXPECT_TRUE(same_ids(list(10, kid), a));
  EXPECT_EQ(lm.table(0).stored_ids(), a.size() + b.size());

  // Either list is found again behind the other; another kid stores its own.
  recruit(sys, 13, grow_msg(kid, wave, 1, a));
  EXPECT_EQ(list(13, kid).data(), list(10, kid).data());
  recruit(sys, 14, grow_msg(kid + 1, wave, 1, a));
  EXPECT_NE(list(14, kid + 1).data(), list(10, kid).data());
  EXPECT_TRUE(same_ids(list(14, kid + 1), a));
  EXPECT_EQ(lm.table(0).stored_ids(), 2 * a.size() + b.size());
}

TEST(LandmarkTable, EntriesAndWaveSlotsStayBoundedOverManyTtls) {
  // Drives a table directly the way the manager does: each round a new
  // wave starts and the last `depth` waves grow a level, lists interned
  // per (kid, wave), sweeps every ttl rounds. The ring wraps eight times.
  constexpr std::uint32_t kTtl = 8;
  constexpr std::uint32_t kDepth = 3;
  constexpr std::uint32_t kKids = 5;
  constexpr std::uint32_t kPerLevel = 120;
  constexpr std::uint32_t kRing = kTtl + kDepth + 1;
  Arena arena;
  LandmarkTable table;
  table.attach(arena, kRing);
  const auto members = [](std::uint64_t kid, Round wave) {
    std::vector<PeerId> ids;
    for (std::uint64_t j = 0; j < 4; ++j) {
      ids.push_back(static_cast<PeerId>(wave) * 100 + kid * 10 + j);
    }
    return ids;
  };
  // (vertex, kid) -> the round its entry was last written.
  std::map<std::pair<Vertex, std::uint64_t>, Round> model;
  std::size_t warm_capacity = 0;
  std::uint64_t warm_fresh = 0;
  for (Round now = 1; now <= 12 * kTtl; ++now) {
    if (now % kTtl == 0) {
      table.sweep(now);
      std::erase_if(model, [&](const auto& kv) {
        return kv.second + static_cast<Round>(kTtl) < now;
      });
    }
    for (std::uint32_t level = 0; level < kDepth && level < now; ++level) {
      const Round wave = now - level;
      for (std::uint32_t i = 0; i < kPerLevel; ++i) {
        const auto v = static_cast<Vertex>(
            (static_cast<std::uint64_t>(now) * 7919 + level * 131 + i * 31) %
            1024);
        const std::uint64_t kid = i % kKids;
        LandmarkTable::Entry* e = table.find(v, kid);
        if (e == nullptr) e = &table.add(v, kid);
        e->st.wave = static_cast<std::uint64_t>(wave);
        e->st.expiry = now + kTtl;
        e->st.committee =
            table.intern(kid, static_cast<std::uint64_t>(wave),
                         members(kid, wave), now, e->st.expiry);
        model[{v, kid}] = now;
      }
    }
    // The table holds exactly the unswept entries, and every live one
    // still reads its own wave's list.
    ASSERT_EQ(table.size(), model.size()) << "round " << now;
    for (const auto& [key, written] : model) {
      const LandmarkTable::Entry* e = table.find(key.first, key.second);
      ASSERT_NE(e, nullptr);
      ASSERT_EQ(e->st.expiry, written + kTtl);
      if (e->st.expiry < now) continue;
      ASSERT_TRUE(same_ids(e->st.committee,
                           members(key.second,
                                   static_cast<Round>(e->st.wave))))
          << "round " << now;
    }
    EXPECT_LE(table.stored_ids(), std::size_t{kRing} * kKids * 4);
    if (now == 4 * kTtl) {
      warm_capacity = table.capacity();
      warm_fresh = arena.fresh_blocks();
    }
  }
  EXPECT_EQ(table.capacity(), warm_capacity);
  EXPECT_EQ(arena.fresh_blocks(), warm_fresh) << "steady state recycles";
}

TEST(LandmarkTable, WaveRingRefusesToRecycleAReferencedSlot) {
  Arena arena;
  LandmarkTable table;
  table.attach(arena, 2);
  const std::vector<PeerId> ids = {1, 2};
  (void)table.intern(7, 0, ids, 0, 10);
  EXPECT_THROW((void)table.intern(7, 2, ids, 2, 12), std::logic_error);
  EXPECT_NO_THROW((void)table.intern(7, 12, ids, 11, 21));
}

}  // namespace
}  // namespace churnstore
