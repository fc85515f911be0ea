// Deterministic partition of vertex slots into contiguous shards.
//
// The sharded round engine (TokenSoup::step, Network's send lanes)
// splits the vertex range [0, n) into `count` contiguous ranges and runs
// each range as one task. Contiguity is load-bearing for determinism:
// every shard scans its range in ascending vertex order, and every merge
// concatenates per-shard buffers in ascending shard order, so the merged
// stream is in ascending GLOBAL vertex order — independent of how many
// shards the work was split into. That is what makes shards=1 and
// shards=16 bit-identical (see tests/sharded_engine_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>

namespace churnstore {

/// Exact unsigned 32-bit division by a runtime-fixed divisor via one
/// widening multiply and shift (Granlund–Montgomery round-up method):
/// with L = ceil(log2 d) and m = ceil(2^(32+L) / d), m*d lands in
/// [2^(32+L), 2^(32+L) + d - 1] and d - 1 <= 2^L, which is exactly the
/// condition under which floor((v * m) >> (32+L)) == v / d for EVERY
/// 32-bit v. shard_of runs on the per-message and per-vertex paths:
/// Network::deliver files each message by its destination's shard, and
/// Network::inbox(v) runs once per vertex each dispatch. A hardware 32-bit
/// divide is ~20+ cycles and unpipelined; the multiply-shift is ~3 cycles
/// and pipelines. Exactness is pinned by the ShardPlan fast-division test.
class FastDiv32 {
 public:
  FastDiv32() = default;
  explicit FastDiv32(std::uint32_t d) noexcept {
    std::uint32_t log2_ceil = 0;
    while ((std::uint64_t{1} << log2_ceil) < d) ++log2_ceil;
    shift_ = 32 + log2_ceil;
    mul_ = static_cast<std::uint64_t>(
        ((static_cast<__uint128_t>(1) << shift_) + d - 1) / d);
  }

  [[nodiscard]] std::uint32_t divide(std::uint32_t v) const noexcept {
    // m can be 33 bits, so the product needs the full 128-bit widening
    // multiply (one mulx on x86-64).
    return static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(v) * mul_) >> shift_);
  }

 private:
  std::uint64_t mul_ = 1ULL << 32;  ///< identity: divide by 1
  std::uint32_t shift_ = 32;
};

class ShardPlan {
 public:
  ShardPlan() = default;
  /// Partition [0, n) into `count` near-equal contiguous ranges; the first
  /// n % count shards get one extra slot. count is clamped to [1, max(n,1)].
  ShardPlan(std::uint32_t n, std::uint32_t count)
      : n_(n),
        count_(std::clamp<std::uint32_t>(count, 1, std::max<std::uint32_t>(n, 1))),
        base_(n_ / count_),
        extra_(n_ % count_),
        wide_(extra_ * (base_ + 1)),
        div_wide_(base_ + 1),
        div_narrow_(std::max<std::uint32_t>(base_, 1)) {}

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }

  [[nodiscard]] std::uint32_t begin(std::uint32_t s) const noexcept {
    return s * base_ + std::min(s, extra_);
  }
  [[nodiscard]] std::uint32_t end(std::uint32_t s) const noexcept {
    return begin(s + 1);
  }

  [[nodiscard]] std::uint32_t shard_of(std::uint32_t v) const noexcept {
    if (v < wide_) return div_wide_.divide(v);
    return extra_ + div_narrow_.divide(v - wide_);
  }

 private:
  std::uint32_t n_ = 0;
  std::uint32_t count_ = 1;
  std::uint32_t base_ = 0;   ///< n / count
  std::uint32_t extra_ = 0;  ///< n % count (first `extra_` shards are +1)
  std::uint32_t wide_ = 0;   ///< first vertex owned by a base_-sized shard
  FastDiv32 div_wide_{};     ///< divide by base_ + 1
  FastDiv32 div_narrow_{};   ///< divide by base_ (>= 1 whenever reachable)
};

}  // namespace churnstore
