// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component of the system (adversary, protocol, workload)
// draws from its own Rng stream derived from a master seed, so that runs are
// exactly reproducible and the adversary's randomness is provably
// independent of the protocol's randomness (the paper's oblivious-adversary
// model requires the adversary to commit to its choices before observing any
// protocol coin flips; separate streams with no feedback path realize this).
//
// The generator is xoshiro256++ seeded via splitmix64, which is
// statistically strong, tiny, and far faster than std::mt19937_64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace churnstore {

/// splitmix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a 64-bit value (one splitmix64 round on a copy).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Seed of the counter-based stream `stream` under `key` (golden-ratio
/// counter mix). stream_rng(key, i) for i = 0, 1, 2, ... yields mutually
/// independent generators that are pure functions of (key, i) — no parent
/// state to advance, so any number of them can be forked concurrently. The
/// sharded round engine derives one per (round, vertex) this way.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t key,
                                        std::uint64_t stream) noexcept;

/// xoshiro256++ generator. Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions, though the member helpers below are
/// preferred in hot paths.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xdeadbeefcafef00dULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Defined inline: next()/next_below() are the innermost operations of
  /// the walk hot loop (one draw per forwarded token), so they must not
  /// cost a cross-TU call. stream_fill_below below batches them further.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl_(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// Derive an independent child stream; deterministic in (this state, salt).
  /// Advances this generator by one draw. For forking WITHOUT shared parent
  /// state (e.g. concurrently, per shard), use the free stream_rng instead.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, pool) without replacement.
  /// Complexity O(k) expected when k << pool (hash-based rejection),
  /// O(pool) otherwise.
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t pool, std::uint32_t k) noexcept;

  /// sample_without_replacement into caller-owned buffers: consumes the
  /// SAME rng draws and produces the SAME sequence (the rejection test
  /// against `seen_scratch` bits matches the hash-set membership test bit
  /// for bit), but performs zero heap allocations once the scratch
  /// capacities have reached steady state — the repeated-sampling form
  /// hot loops (the churn adversary, every round, forever) must use.
  /// `index_scratch` is resized to pool in the dense branch;
  /// `seen_scratch` is grown to pool once and returned all-zero.
  void sample_without_replacement_into(
      std::uint32_t pool, std::uint32_t k, std::vector<std::uint32_t>& out,
      std::vector<std::uint32_t>& index_scratch,
      std::vector<std::uint8_t>& seen_scratch) noexcept;

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// The generator seeded by stream_seed(key, stream); see stream_seed.
[[nodiscard]] inline Rng stream_rng(std::uint64_t key,
                                    std::uint64_t stream) noexcept {
  return Rng(stream_seed(key, stream));
}

/// Batched counter-stream draws: fills out[0..k) with k uniform values in
/// [0, bound), all drawn from the SINGLE stream stream_rng(key, stream) —
/// draw-for-draw identical to constructing that stream once and calling
/// next_below(bound) k times. The walk hot loop makes one call per
/// (round, vertex) and then indexes neighbors straight off the buffer,
/// which keeps the per-(round, vertex) stream discipline that shardcheck
/// R1 enforces while removing every per-token generator interaction from
/// the inner loop. bound must be > 0 and fit in 32 bits (it is a vertex
/// degree or similar small fan-out).
inline void stream_fill_below(std::uint64_t key, std::uint64_t stream,
                              std::uint64_t bound, std::uint32_t* out,
                              std::size_t k) noexcept {
  Rng rng = stream_rng(key, stream);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = static_cast<std::uint32_t>(rng.next_below(bound));
  }
}

}  // namespace churnstore
