// SmallVec: inline storage for the common case, arena spill for the rest.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/arena.h"
#include "util/small_vec.h"

namespace churnstore {
namespace {

TEST(SmallVec, InlineUpToCapacityWithoutSpilling) {
  SmallVec<std::uint64_t, 4> v;
  EXPECT_TRUE(v.empty());
  for (std::uint64_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, SpillsPastInlineCapacityAndKeepsContents) {
  SmallVec<std::uint64_t, 4> v;
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, InitializerListAndVectorAssignment) {
  SmallVec<std::uint64_t, 4> v;
  v = {7, 8, 9};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 9u);

  std::vector<std::uint64_t> big(40);
  std::iota(big.begin(), big.end(), 1);
  v = big;
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 40u);
  EXPECT_EQ(v[39], 40u);
  EXPECT_EQ(v.to_vector(), big);

  v = {1};  // shrink keeps the spill block but logical size drops
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1u);
}

TEST(SmallVec, EndInsertAppendsRanges) {
  SmallVec<std::uint64_t, 4> v{1, 2};
  const std::vector<std::uint64_t> tail = {3, 4, 5, 6, 7};
  v.insert(v.end(), tail.begin(), tail.end());
  ASSERT_EQ(v.size(), 7u);
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[6], 7u);
}

TEST(SmallVec, CopyAndMovePreserveContentsAndEmptyTheMovedFrom) {
  SmallVec<std::uint64_t, 4> v;
  for (std::uint64_t i = 0; i < 32; ++i) v.push_back(i);
  SmallVec<std::uint64_t, 4> copy(v);
  EXPECT_TRUE(copy == v);

  SmallVec<std::uint64_t, 4> moved(std::move(v));
  EXPECT_TRUE(moved == copy);
  EXPECT_TRUE(v.empty());      // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(v.spilled());   // moved-from resets to inline empty

  SmallVec<std::uint64_t, 4> inline_src{1, 2, 3};
  SmallVec<std::uint64_t, 4> inline_moved(std::move(inline_src));
  ASSERT_EQ(inline_moved.size(), 3u);
  EXPECT_EQ(inline_moved[1], 2u);
}

TEST(SmallVec, SpillsIntoTheBoundArenaAndReturnsBlocksOnDestruction) {
  Arena arena;
  {
    ScopedArenaBind bind(&arena);
    SmallVec<std::uint64_t, 4> v;
    for (std::uint64_t i = 0; i < 64; ++i) v.push_back(i);
    EXPECT_TRUE(v.spilled());
    EXPECT_GT(arena.bytes_in_use(), 0u);
    EXPECT_EQ(v[63], 63u);
  }
  // Destruction returned every block to the arena's freelists.
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(SmallVec, UnboundContextsSpillToTheHeap) {
  ASSERT_EQ(Arena::current(), nullptr);
  SmallVec<std::uint64_t, 4> v;
  for (std::uint64_t i = 0; i < 64; ++i) v.push_back(i);
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.to_vector().size(), 64u);
}

TEST(SmallVec, ScopedBindNestsAndRestores) {
  Arena a, b;
  EXPECT_EQ(Arena::current(), nullptr);
  {
    ScopedArenaBind outer(&a);
    EXPECT_EQ(Arena::current(), &a);
    {
      ScopedArenaBind inner(&b);
      EXPECT_EQ(Arena::current(), &b);
    }
    EXPECT_EQ(Arena::current(), &a);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

}  // namespace
}  // namespace churnstore
