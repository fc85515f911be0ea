// Software write-combining for the radix scatter (the classic in-memory
// partitioning technique: Satish et al., Wassenberg & Sanders, Polychroniou
// & Ross).
//
// The forward loop scatters tokens into hundreds of per-(src shard, dst
// page) buckets of two columns (the 64-bit token word and the u32 dst).
// Pushing directly means every token dirties two far-apart cache lines
// (one per column tail), and with hundreds of open write streams the
// hardware gives up: each push is a read-for-ownership DRAM round-trip
// plus a dTLB walk. A WcScatter keeps one 64-byte staging line per bucket
// column in a compact table that DOES fit in L1/L2; pushes land in the
// staging line, and only a FULL line is written to the real bucket tail —
// one line-sized burst per 8 words / 16 dsts instead of two touches per
// token.
//
// Full-line writes optionally use non-temporal stores (CHURNSTORE_NT_STORES,
// on by default via CMake): the bucket tails are not re-read until a later
// phase, so bypassing the cache skips the RFO read entirely. The fallback is
// plain memcpy (which the compiler lowers to ordinary vector moves).
// flush_all() ends with one sfence (a no-op in the fallback); the engine's
// pool barrier would also order the stores, but the fence makes the handoff
// self-contained.
//
// Determinism contract: per-bucket element order under WC buffering is
// byte-identical to direct push_back order — elements enter the staging
// line in push order and lines are flushed in order, so this is pure
// plumbing under the engine's S-invariance (golden baselines do not move).
//
// Bucket interface (see TokenSoup::HandoffBucket, tests/wc_buffer_test.cpp):
//   std::uint64_t* words();  std::uint32_t* dst();
//   void wc_reserve(n);   // cap >= n; growth may copy garbage tails
//   void wc_commit(n);    // size = n (absolute), after tails are in place
// Alignment contract: the bucket block is 64-byte aligned and its capacity
// is a multiple of 16, so both column bases are 64-byte aligned and every
// full-line flush targets an aligned line.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(CHURNSTORE_NT_STORES) && defined(__SSE2__)
#include <emmintrin.h>
#define CHURNSTORE_WC_NT 1
#else
#define CHURNSTORE_WC_NT 0
#endif

namespace churnstore {

/// One full cache line, non-temporal when the toggle + SSE2 are available
/// (dst must be 16-byte aligned — the WC alignment contract gives 64).
inline void wc_stream_line(std::byte* dst, const std::byte* line) noexcept {
#if CHURNSTORE_WC_NT
  auto* d = reinterpret_cast<__m128i*>(dst);
  const auto* s = reinterpret_cast<const __m128i*>(line);
  _mm_stream_si128(d + 0, _mm_load_si128(s + 0));
  _mm_stream_si128(d + 1, _mm_load_si128(s + 1));
  _mm_stream_si128(d + 2, _mm_load_si128(s + 2));
  _mm_stream_si128(d + 3, _mm_load_si128(s + 3));
#else
  std::memcpy(dst, line, 64);
#endif
}

/// Orders prior non-temporal stores before subsequent reads (no-op in the
/// memcpy fallback).
inline void wc_stream_fence() noexcept {
#if CHURNSTORE_WC_NT
  _mm_sfence();
#endif
}

/// Write-combining front end for a contiguous array of buckets with the
/// engine's handoff record shape: (u64 token word, u32 dst). Hard-coding
/// the shape keeps push() at two masked stores — the hot loop runs this
/// tens of millions of times per round. Full-line flushes stream
/// (wc_stream_line): the buckets are read a phase later.
///
/// Not thread-safe: one WcScatter per shard, touched only by that shard's
/// task — the same contract as the buckets it fronts.
template <class Bucket>
class WcScatter {
 public:
  /// Line quanta per column: 8 x u64 / 16 x u32 fill 64 bytes.
  static constexpr std::uint32_t kLine0 = 8;
  static constexpr std::uint32_t kLine1 = 16;

  /// Point at `count` buckets (must outlive the scatter or be re-attached).
  /// Staging state is reset; bucket sizes are untouched.
  void attach(Bucket* buckets, std::uint32_t count) {
    buckets_ = buckets;
    count_ = count;
    slots_.assign(count, Slot{});
    counts_.assign(count, 0u);
  }

  /// Staged-but-unflushed elements of bucket b (testing / introspection).
  [[nodiscard]] std::uint32_t pending(std::uint32_t b) const noexcept {
    return counts_[b];
  }

  void push(std::uint32_t b, std::uint64_t word, std::uint32_t dst) {
    Slot& sl = slots_[b];
    const std::uint32_t c = counts_[b];
    reinterpret_cast<std::uint64_t*>(sl.line[0])[c & (kLine0 - 1)] = word;
    reinterpret_cast<std::uint32_t*>(sl.line[1])[c & (kLine1 - 1)] = dst;
    const std::uint32_t n = c + 1;
    counts_[b] = n;
    if ((n & (kLine0 - 1)) == 0) spill(b, n);
  }

  /// Deterministic epilogue: copy every partial staging tail to its column,
  /// commit bucket sizes, reset staging. After this the buckets read exactly
  /// as if every element had been push_back'd directly.
  void flush_all() {
    for (std::uint32_t b = 0; b < count_; ++b) {
      const std::uint32_t n = counts_[b];
      if (n == 0) continue;
      Bucket& bk = buckets_[b];
      bk.wc_reserve(n);
      Slot& sl = slots_[b];
      // Full lines already hit the columns at spill time; each partial tail
      // sits at the front of its staging line (indices wrap at the line
      // quantum), destined for the last committed line boundary.
      const std::uint32_t t0 = n & (kLine0 - 1);
      const std::uint32_t t1 = n & (kLine1 - 1);
      if (t0 != 0) {
        std::memcpy(reinterpret_cast<std::byte*>(bk.words()) +
                        std::size_t{n - t0} * 8,
                    sl.line[0], std::size_t{t0} * 8);
      }
      if (t1 != 0) {
        std::memcpy(reinterpret_cast<std::byte*>(bk.dst()) +
                        std::size_t{n - t1} * 4,
                    sl.line[1], std::size_t{t1} * 4);
      }
      bk.wc_commit(n);
      counts_[b] = 0;
    }
    wc_stream_fence();
  }

 private:
  struct Slot {
    alignas(64) std::byte line[2][64];
  };

  /// Write the just-completed word line (and the dst line when its larger
  /// quantum also completed) to the bucket tails. n is a multiple of 8.
  void spill(std::uint32_t b, std::uint32_t n) {
    Bucket& bk = buckets_[b];
    bk.wc_reserve(n);
    assert((reinterpret_cast<std::uintptr_t>(bk.words()) & 63) == 0 &&
           "WC bucket block must be 64-byte aligned");
    Slot& sl = slots_[b];
    wc_stream_line(reinterpret_cast<std::byte*>(bk.words()) +
                       std::size_t{n - kLine0} * 8,
                   sl.line[0]);
    if ((n & (kLine1 - 1)) == 0) {
      wc_stream_line(reinterpret_cast<std::byte*>(bk.dst()) +
                         std::size_t{n - kLine1} * 4,
                     sl.line[1]);
    }
  }

  Bucket* buckets_ = nullptr;
  std::uint32_t count_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace churnstore
