// Tests for the runtime allocation sentinel (util/heap_sentinel.h): exact
// per-thread alloc/free/byte accounting, HeapQuiesceScope violation
// reporting, cross-thread aggregation (the TSan suite runs this file with
// concurrent allocators), and the forced-unavailable degraded path.
// scripts/check.sh --tsan and --asan run the whole suite, so the counters
// are exercised under both sanitizers — sanitizer interception sits below
// our operator new (we forward to malloc), so the two compose.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "util/heap_sentinel.h"

namespace {

using churnstore::HeapQuiesceScope;
using churnstore::HeapSentinel;

/// Keeps the allocation observable so the compiler cannot elide a
/// new/delete pair under the allocation-elision rules.
void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(HeapSentinel, CountsAllocsFreesAndExactBytes) {
  if (!HeapSentinel::available()) {
    GTEST_SKIP() << "sentinel compiled out on this build";
  }
  constexpr std::size_t kBytes = 4096;
  const auto before = HeapSentinel::thread_totals();
  auto* p = new std::uint8_t[kBytes];
  escape(p);
  const auto mid = HeapSentinel::thread_totals();
  delete[] p;
  const auto after = HeapSentinel::thread_totals();

  // Exact: nothing else allocates on this thread between the snapshots
  // (thread_totals itself is allocation-free), and new uint8_t[] requests
  // exactly kBytes — no array cookie for trivially-destructible elements.
  EXPECT_EQ(mid.allocs - before.allocs, 1u);
  EXPECT_EQ(mid.bytes - before.bytes, kBytes);
  EXPECT_EQ(mid.frees - before.frees, 0u);
  EXPECT_EQ(after.frees - mid.frees, 1u);
  EXPECT_EQ(after.allocs - mid.allocs, 0u);
}

TEST(HeapSentinel, AlignedAndNothrowFormsCount) {
  if (!HeapSentinel::available()) {
    GTEST_SKIP() << "sentinel compiled out on this build";
  }
  const auto before = HeapSentinel::thread_totals();
  struct alignas(64) Wide {
    std::uint8_t bytes[64];
  };
  auto* w = new Wide;
  escape(w);
  const std::uintptr_t w_addr = reinterpret_cast<std::uintptr_t>(w);
  auto* n = new (std::nothrow) std::uint64_t(42);
  escape(n);
  const auto mid = HeapSentinel::thread_totals();
  delete w;
  delete n;
  const auto after = HeapSentinel::thread_totals();
  EXPECT_EQ(mid.allocs - before.allocs, 2u);
  EXPECT_GE(mid.bytes - before.bytes, sizeof(Wide) + sizeof(std::uint64_t));
  EXPECT_EQ(after.frees - mid.frees, 2u);
  EXPECT_EQ(w_addr % 64, 0u);
}

TEST(HeapSentinel, ProcessTotalsAggregateConcurrentThreads) {
  if (!HeapSentinel::available()) {
    GTEST_SKIP() << "sentinel compiled out on this build";
  }
  constexpr int kThreads = 8;
  constexpr int kAllocsPerThread = 1000;
  constexpr std::size_t kBytes = 64;
  const auto before = HeapSentinel::process_totals();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kAllocsPerThread; ++i) {
        auto* p = new std::uint8_t[kBytes];
        escape(p);
        delete[] p;
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto d = HeapSentinel::process_totals() - before;
  // >=: thread spawn/join machinery may allocate too — the floor is what
  // the workers provably did, and nothing may be lost.
  EXPECT_GE(d.allocs, std::uint64_t{kThreads} * kAllocsPerThread);
  EXPECT_GE(d.frees, std::uint64_t{kThreads} * kAllocsPerThread);
  EXPECT_GE(d.bytes, std::uint64_t{kThreads} * kAllocsPerThread * kBytes);
}

TEST(HeapQuiesce, ScopeReportsViolationCountsAndBytes) {
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel compiled out on this build";
  }
  const HeapQuiesceScope probe;
  ASSERT_TRUE(probe.quiet());
  std::vector<std::uint64_t> v;
  v.push_back(1);  // un-reserved vector growth: the canonical violation
  EXPECT_FALSE(probe.quiet());
  const auto d = probe.delta();
  EXPECT_GE(d.allocs, 1u);
  EXPECT_GE(d.bytes, sizeof(std::uint64_t));
}

TEST(HeapQuiesce, QuietRegionStaysQuiet) {
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel compiled out on this build";
  }
  std::vector<std::uint64_t> v;
  v.reserve(256);
  const HeapQuiesceScope probe;
  for (std::uint64_t i = 0; i < 256; ++i) v.push_back(i);
  std::uint64_t sum = 0;
  for (const std::uint64_t x : v) sum += x;
  EXPECT_EQ(sum, 255u * 256u / 2u);
  EXPECT_TRUE(probe.quiet()) << "allocs=" << probe.delta().allocs;
}

TEST(HeapSentinel, ForcedUnavailableDegradesGracefully) {
  HeapSentinel::force_unavailable_for_testing(true);
  EXPECT_FALSE(HeapSentinel::available());
  EXPECT_FALSE(HeapQuiesceScope::supported());
  // Everything stays safe to call in the degraded state; readings mean
  // "unknown" and callers must not assert quiet — exactly what the
  // steady-state test and the registry's gated heap.* entries do.
  const HeapQuiesceScope probe;
  auto* p = new std::uint64_t(7);
  escape(p);
  delete p;
  (void)probe.delta();
  (void)HeapSentinel::thread_totals();
  (void)HeapSentinel::process_totals();
  HeapSentinel::force_unavailable_for_testing(false);
}

}  // namespace
