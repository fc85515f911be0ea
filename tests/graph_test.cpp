#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/properties.h"
#include "graph/regular_generator.h"
#include "graph/rewirer.h"
#include "util/rng.h"

namespace churnstore {
namespace {

/// Builds the d=2 cycle 0-1-2-...-n-1-0 explicitly.
RegularGraph make_cycle(Vertex n) {
  RegularGraph g(n, 2);
  for (Vertex v = 0; v < n; ++v) {
    g.set_edge(v, 1, (v + 1) % n, 0);
  }
  return g;
}

TEST(RegularGraph, CycleInvariantsAndProperties) {
  const auto g = make_cycle(10);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));  // even cycle

  const auto odd = make_cycle(9);
  EXPECT_FALSE(is_bipartite(odd));  // odd cycle
}

TEST(RegularGraph, SwapEdgesPreservesInvariants) {
  auto g = make_cycle(12);
  // Swap edges {0,1} and {6,7} -> {0,7} and {6,1}.
  const std::size_t s1 = g.slot(0, 1);
  const std::size_t s2 = g.slot(6, 1);
  ASSERT_EQ(g.slot_target(s1), 1u);
  ASSERT_EQ(g.slot_target(s2), 7u);
  g.swap_edges(s1, s2);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_TRUE(g.has_edge(0, 7));
  EXPECT_TRUE(g.has_edge(6, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(6, 7));
}

TEST(Generator, RejectsInvalidParameters) {
  Rng rng(1);
  EXPECT_THROW(random_regular_graph(5, 0, rng), std::invalid_argument);
  EXPECT_THROW(random_regular_graph(4, 4, rng), std::invalid_argument);
  EXPECT_THROW(random_regular_graph(5, 3, rng), std::invalid_argument);  // odd nd
}

class GeneratorProperty
    : public ::testing::TestWithParam<std::tuple<Vertex, std::uint32_t, int>> {};

TEST_P(GeneratorProperty, ProducesValidConnectedNonBipartiteRegularGraph) {
  const auto [n, d, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto g = random_regular_graph(n, d, rng);
  EXPECT_EQ(g.n(), n);
  EXPECT_EQ(g.degree(), d);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_bipartite(g));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorProperty,
    ::testing::Values(std::tuple{16u, 4u, 1}, std::tuple{64u, 3u, 2},
                      std::tuple{64u, 8u, 3}, std::tuple{256u, 8u, 4},
                      std::tuple{1000u, 6u, 5}, std::tuple{2048u, 8u, 6},
                      std::tuple{9u, 8u, 7} /* n = d + 1: complete graph */));

TEST(Generator, DifferentSeedsGiveDifferentGraphs) {
  Rng r1(100), r2(200);
  const auto a = random_regular_graph(128, 6, r1);
  const auto b = random_regular_graph(128, 6, r2);
  int same = 0, total = 0;
  for (Vertex v = 0; v < 128; ++v) {
    for (std::uint32_t i = 0; i < 6; ++i) {
      ++total;
      same += b.has_edge(v, a.neighbor(v, i));
    }
  }
  EXPECT_LT(same, total / 2);
}

TEST(Rewirer, PreservesInvariantsOverManyRounds) {
  Rng rng(42);
  auto g = random_regular_graph(256, 8, rng);
  Rewirer rw(Rewirer::Options{.swaps_per_round = 64,
                              .connectivity_check_period = 16},
             rng.fork(1));
  for (int round = 0; round < 200; ++round) {
    rw.apply(g);
  }
  EXPECT_TRUE(g.check_invariants());
  EXPECT_TRUE(is_connected(g));
  EXPECT_GT(rw.total_swaps(), 1000u);
}

TEST(Rewirer, ActuallyChangesEdges) {
  Rng rng(43);
  const auto original = random_regular_graph(128, 8, rng);
  auto g = original;
  Rewirer rw(Rewirer::Options{.swaps_per_round = 128,
                              .connectivity_check_period = 0},
             rng.fork(2));
  for (int round = 0; round < 20; ++round) rw.apply(g);
  int changed = 0;
  for (Vertex v = 0; v < 128; ++v)
    for (std::uint32_t i = 0; i < 8; ++i)
      changed += !original.has_edge(v, g.neighbor(v, i));
  EXPECT_GT(changed, 100);
}

TEST(Rewirer, ZeroSwapsIsNoOp) {
  Rng rng(44);
  const auto original = random_regular_graph(64, 4, rng);
  auto g = original;
  Rewirer rw(Rewirer::Options{.swaps_per_round = 0}, rng.fork(3));
  EXPECT_EQ(rw.apply(g), 0u);
  for (Vertex v = 0; v < 64; ++v)
    for (std::uint32_t i = 0; i < 4; ++i)
      EXPECT_EQ(g.neighbor(v, i), original.neighbor(v, i));
}

TEST(Properties, DisconnectedGraphDetected) {
  // Two disjoint 4-cycles: 2-regular, disconnected, bipartite.
  RegularGraph g(8, 2);
  for (Vertex v = 0; v < 4; ++v) g.set_edge(v, 1, (v + 1) % 4, 0);
  for (Vertex v = 4; v < 8; ++v) g.set_edge(v, 1, 4 + (v + 1) % 4, 0);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));
}

}  // namespace
}  // namespace churnstore
