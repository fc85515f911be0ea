// util/arena.h — the per-shard slab allocator behind the sharded round
// engine's token queues, handoff buckets, and message send lanes.
#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/network.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

TEST(Arena, ReusesFreedBlocksThroughTheFreelist) {
  Arena arena;
  void* a = arena.allocate(64);
  EXPECT_EQ(arena.fresh_blocks(), 1u);
  arena.deallocate(a, 64);
  void* b = arena.allocate(64);
  EXPECT_EQ(b, a) << "freed block must be recycled, not bump-allocated";
  EXPECT_EQ(arena.reused_blocks(), 1u);
  EXPECT_EQ(arena.fresh_blocks(), 1u);
  arena.deallocate(b, 64);
}

TEST(Arena, RoundsUpToSizeClassesSharedByEqualSizes) {
  Arena arena;
  // Classes run 16, 24, 32, 48, 64, ... (two per octave): 33..48 bytes
  // share one class, so freeing a 40-byte block satisfies a later 48-byte
  // request.
  void* a = arena.allocate(40);
  arena.deallocate(a, 40);
  void* b = arena.allocate(48);
  EXPECT_EQ(b, a);
  arena.deallocate(b, 48);
  // ...but a 64-byte request is the NEXT class up: fresh block.
  void* c = arena.allocate(40);
  arena.deallocate(c, 40);
  void* d = arena.allocate(64);
  EXPECT_NE(d, c);
  arena.deallocate(d, 64);
}

TEST(Arena, TracksInUseAndHighWaterBytes) {
  Arena arena;
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  void* a = arena.allocate(100);  // class 128
  void* b = arena.allocate(10);   // class 16
  EXPECT_EQ(arena.bytes_in_use(), 128u + 16u);
  EXPECT_EQ(arena.high_water(), 128u + 16u);
  arena.deallocate(a, 100);
  EXPECT_EQ(arena.bytes_in_use(), 16u);
  EXPECT_EQ(arena.high_water(), 128u + 16u) << "high water never recedes";
  arena.deallocate(b, 10);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GE(arena.bytes_reserved(), arena.high_water());
  EXPECT_EQ(arena.slab_count(), 1u);
}

TEST(Arena, PerShardArenasAreIsolated) {
  // The engine's contract: one arena per shard, each touched only by its
  // own task. Blocks freed into one arena must never satisfy (or corrupt)
  // allocations from another.
  Arena shard0;
  Arena shard1;
  void* a = shard0.allocate(256);
  std::memset(a, 0xAB, 256);
  shard0.deallocate(a, 256);
  void* b = shard1.allocate(256);
  EXPECT_NE(b, a) << "arenas must not share freelists";
  EXPECT_EQ(shard0.reused_blocks(), 0u);
  EXPECT_EQ(shard1.fresh_blocks(), 1u);
  EXPECT_EQ(shard1.bytes_in_use(), 256u);
  EXPECT_EQ(shard0.bytes_in_use(), 0u);
  shard1.deallocate(b, 256);
}

TEST(Arena, OversizeBlocksFallThroughToTheHeap) {
  Arena arena;
  const std::size_t big = Arena::kMaxBlock + 1;
  void* p = arena.allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, big);
  EXPECT_EQ(arena.bytes_in_use(), big);
  arena.deallocate(p, big);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.slab_count(), 0u) << "oversize must not consume slabs";
}

TEST(ArenaAllocator, BacksStdVectorAndRecyclesGrowth) {
  Arena arena;
  {
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
    EXPECT_GT(arena.bytes_in_use(), 0u);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u) << "vector returned all blocks";
  const std::uint64_t fresh_after_first = arena.fresh_blocks();
  {
    // A second identical vector reuses the recycled growth chain: no new
    // blocks at all.
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(arena.fresh_blocks(), fresh_after_first);
    EXPECT_GT(arena.reused_blocks(), 0u);
  }
}

TEST(ArenaAllocator, TravelsWithSwapAndMove) {
  Arena a0;
  Arena a1;
  std::vector<int, ArenaAllocator<int>> v0{ArenaAllocator<int>(&a0)};
  std::vector<int, ArenaAllocator<int>> v1{ArenaAllocator<int>(&a1)};
  v0.assign(100, 7);
  v1.assign(50, 9);
  v0.swap(v1);  // POCS: buffers AND arenas swap; frees stay matched
  EXPECT_EQ(v0.size(), 50u);
  EXPECT_EQ(v1.size(), 100u);
  EXPECT_EQ(v0.get_allocator().arena(), &a1);
  EXPECT_EQ(v1.get_allocator().arena(), &a0);
  v0.clear();
  v0.shrink_to_fit();
  EXPECT_EQ(a1.bytes_in_use(), 0u);
  std::vector<int, ArenaAllocator<int>> moved = std::move(v1);
  EXPECT_EQ(moved.get_allocator().arena(), &a0);
  EXPECT_EQ(moved.size(), 100u);
}

TEST(ArenaSteadyState, HighWaterStaysFlatAcrossSteadyStateSoupRounds) {
  // The whole point of the arena story: once the soup (token queues,
  // handoff buckets, sample cohorts) reaches steady state, every round is
  // served from recycled blocks — the high-water mark must stop moving.
  SimConfig cfg;
  cfg.n = 256;
  cfg.degree = 8;
  cfg.seed = 31;
  cfg.churn.kind = AdversaryKind::kUniform;
  cfg.churn.absolute = cfg.n / 16;
  cfg.edge_dynamics = EdgeDynamics::kRewire;
  cfg.shards = 4;
  Network net(cfg);
  TokenSoup soup(net, WalkConfig{});
  auto run = [&](std::uint32_t rounds) {
    for (std::uint32_t i = 0; i < rounds; ++i) {
      net.begin_round();
      soup.step();
      net.deliver();
    }
  };
  auto high_water = [&] {
    std::size_t acc = 0;
    for (std::uint32_t s = 0; s < net.shards().count(); ++s) {
      acc += net.shard_arena(s).high_water();
    }
    return acc;
  };
  auto reserved = [&] {
    std::size_t acc = 0;
    for (std::uint32_t s = 0; s < net.shards().count(); ++s) {
      acc += net.shard_arena(s).bytes_reserved();
    }
    return acc;
  };
  run(4 * soup.tau());  // warm to steady state
  const std::size_t settled_hw = high_water();
  const std::size_t settled_slabs = reserved();
  ASSERT_GT(settled_hw, 0u);
  run(2 * soup.tau());
  // Churn keeps re-skewing the per-vertex token/cohort distribution, so the
  // PEAK demand may still drift by a few percent — but a leak (an
  // allocation escaping the recycle path) grows linearly with rounds, and
  // new slab reservations would be its first symptom.
  EXPECT_EQ(reserved(), settled_slabs)
      << "steady-state rounds reserved new slabs: an allocation is "
         "escaping the recycle path";
  EXPECT_LT(static_cast<double>(high_water() - settled_hw),
            0.05 * static_cast<double>(settled_hw))
      << "high-water keeps climbing well past steady state";
}

}  // namespace
}  // namespace churnstore
