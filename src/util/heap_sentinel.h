// Runtime allocation sentinel — the dynamic half of the arena discipline.
//
// shardcheck R6/R7 prove *lexically* that hot regions do not touch the
// global heap; this module proves it *at runtime*: replacement global
// operator new/delete count every allocation (per thread and process-wide),
// and HeapQuiesceScope snapshots the counters around a region so callers
// can assert "this steady-state round performed zero heap allocations" —
// or print honest allocs/round columns when it did not.
//
// Counting is always on (when compiled in): each thread owns one
// cacheline-aligned counter slot in a fixed global table, registered
// lock-free on first allocation, and bumps it with relaxed atomics — an
// uncontended ~1ns add per malloc, negligible next to the malloc itself.
// process_totals() sums the slots; concurrent reads are racy-but-monotonic
// snapshots, which is exactly what a before/after delta needs.
//
// Graceful degradation, like util/perf_counters.h: when the replacements
// are compiled out (-DCHURNSTORE_HEAP_SENTINEL absent — e.g. a host
// allocator that must not be shadowed) every total reads as zero, and when
// force_unavailable_for_testing() is set the counters keep running but the
// availability contract flips. Either way available() reports false and
// callers MUST treat the readings as absent, not zero — print "n/a" and
// move on, never a fake heap-quiet claim.
#pragma once

#include <cstdint>

namespace churnstore {

class HeapSentinel {
 public:
  struct Totals {
    std::uint64_t allocs = 0;  ///< operator new calls
    std::uint64_t frees = 0;   ///< operator delete calls (non-null)
    std::uint64_t bytes = 0;   ///< bytes requested from operator new

    friend Totals operator-(const Totals& a, const Totals& b) noexcept {
      return Totals{a.allocs - b.allocs, a.frees - b.frees,
                    a.bytes - b.bytes};
    }
  };

  /// True when the counting operator new/delete replacements are linked
  /// and active. False when compiled out or forced off for testing — in
  /// which case totals read zero and mean "unknown", not "no allocations".
  [[nodiscard]] static bool available() noexcept;

  /// The calling thread's own counters (exact: only this thread writes
  /// its slot).
  [[nodiscard]] static Totals thread_totals() noexcept;

  /// Sum over every thread that ever allocated. Monotonic; concurrent
  /// writers may land between the per-slot reads, so a delta of two
  /// snapshots can attribute an in-flight allocation to either side —
  /// never lose or double-count a completed one.
  [[nodiscard]] static Totals process_totals() noexcept;

  /// Test hook: makes available() report false so the degraded path
  /// ("n/a", skipped quiet assertions) is testable on hosts where the
  /// replacements work. Counting itself keeps running — only the
  /// availability contract flips. (util/ static-state exemption:
  /// test-only, never touched from shard tasks.)
  static void force_unavailable_for_testing(bool on) noexcept;
};

/// RAII probe for the heap-quiet invariant: snapshots process totals at
/// construction; delta() is the allocation traffic since then, across ALL
/// threads (shard-pool workers included — which is the point: a sharded
/// round's allocations happen on pool threads, not the caller).
///
///   HeapQuiesceScope probe;
///   sys.run_round();
///   if (HeapQuiesceScope::supported() && !probe.quiet()) report(probe.delta());
///
/// The scope records, it does not enforce: destruction never asserts or
/// throws. Callers decide whether a non-quiet region is a bug (the soup
/// steady state) or the honest cost of a control-plane event (a committee
/// reconfiguration mid-round).
class HeapQuiesceScope {
 public:
  HeapQuiesceScope() noexcept : start_(HeapSentinel::process_totals()) {}

  /// Allocation traffic since construction. All-zero when !supported().
  [[nodiscard]] HeapSentinel::Totals delta() const noexcept {
    return HeapSentinel::process_totals() - start_;
  }

  /// True when zero operator-new calls landed since construction. Only
  /// meaningful when supported(); an unavailable sentinel reads quiet
  /// vacuously, so gate any assertion on supported() first.
  [[nodiscard]] bool quiet() const noexcept { return delta().allocs == 0; }

  /// Whether quiet()/delta() carry real measurements on this build/host.
  [[nodiscard]] static bool supported() noexcept {
    return HeapSentinel::available();
  }

 private:
  HeapSentinel::Totals start_;
};

}  // namespace churnstore
