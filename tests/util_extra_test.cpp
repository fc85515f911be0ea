#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "graph/properties.h"
#include "graph/regular_generator.h"
#include "storage/item.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace churnstore {
namespace {

TEST(Table, AlignedPrintContainsAllCells) {
  Table t({"name", "value"});
  t.begin_row().cell("alpha").cell(static_cast<std::int64_t>(42));
  t.begin_row().cell("beta").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.data()[0].size(), 3u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto fut = pool.submit([&] { ran = true; });
  fut.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForIndicesAreDistinct) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for(32, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Item, ContentHashDiscriminates) {
  EXPECT_EQ(content_hash({1, 2, 3}), content_hash({1, 2, 3}));
  EXPECT_NE(content_hash({1, 2, 3}), content_hash({1, 2, 4}));
  EXPECT_NE(content_hash({}), content_hash({0}));
}

TEST(Item, MakePayloadDeterministicSizedAndSeeded) {
  const auto a = make_payload(7, 1024);
  const auto b = make_payload(7, 1024);
  const auto c = make_payload(8, 1024);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(make_payload(1, 7).size(), 1u);  // rounds bits up to bytes
  EXPECT_TRUE(make_payload(1, 0).empty());
}

/// Longest BFS distance from `from` (BFS assigns distances in
/// nondecreasing order, so the last one assigned is the largest).
std::uint32_t eccentricity(const RegularGraph& g, Vertex from) {
  std::vector<std::int32_t> dist(g.n(), -1);
  std::vector<Vertex> queue{from};
  dist[from] = 0;
  std::uint32_t depth = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (std::uint32_t i = 0; i < g.degree(); ++i) {
      const Vertex u = g.neighbor(v, i);
      if (dist[u] >= 0) continue;
      dist[u] = dist[v] + 1;
      depth = static_cast<std::uint32_t>(dist[u]);
      queue.push_back(u);
    }
  }
  return depth;
}

TEST(GraphProperties, ExpanderDiameterIsLogarithmic) {
  Rng rng(3);
  const auto g = random_regular_graph(1024, 8, rng);
  ASSERT_TRUE(is_connected(g));
  std::uint32_t diam = 0;
  for (Vertex v = 0; v < g.n(); ++v) diam = std::max(diam, eccentricity(g, v));
  // Random 8-regular graphs on 1024 vertices have diameter ~4-6.
  EXPECT_GE(diam, 3u);
  EXPECT_LE(diam, 8u);
}

}  // namespace
}  // namespace churnstore
