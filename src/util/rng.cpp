#include "util/rng.h"

#include <unordered_set>

namespace churnstore {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

std::uint64_t stream_seed(std::uint64_t key, std::uint64_t stream) noexcept {
  return mix64(key ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
}

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

Rng Rng::fork(std::uint64_t salt) noexcept {
  return Rng(mix64(next() ^ mix64(salt)));
}

std::vector<std::uint32_t> Rng::sample_without_replacement(
    std::uint32_t pool, std::uint32_t k) noexcept {
  if (k >= pool) {
    std::vector<std::uint32_t> all(pool);
    for (std::uint32_t i = 0; i < pool; ++i) all[i] = i;
    shuffle(all);
    return all;
  }
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k * 3ULL >= pool) {
    // Dense case: partial Fisher-Yates over an index array.
    std::vector<std::uint32_t> all(pool);
    for (std::uint32_t i = 0; i < pool; ++i) all[i] = i;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t j =
          i + static_cast<std::uint32_t>(next_below(pool - i));
      std::swap(all[i], all[j]);
      out.push_back(all[i]);
    }
    return out;
  }
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    const auto c = static_cast<std::uint32_t>(next_below(pool));
    if (seen.insert(c).second) out.push_back(c);
  }
  return out;
}

void Rng::sample_without_replacement_into(
    std::uint32_t pool, std::uint32_t k, std::vector<std::uint32_t>& out,
    std::vector<std::uint32_t>& index_scratch,
    std::vector<std::uint8_t>& seen_scratch) noexcept {
  // Mirror of sample_without_replacement, branch for branch and draw for
  // draw: the two must stay in lockstep or seeded trajectories diverge
  // depending on which form a caller picked.
  out.clear();
  if (k >= pool) {
    out.resize(pool);
    for (std::uint32_t i = 0; i < pool; ++i) out[i] = i;
    shuffle(out);
    return;
  }
  if (k * 3ULL >= pool) {
    // Dense case: partial Fisher-Yates over the reusable index array.
    index_scratch.resize(pool);
    for (std::uint32_t i = 0; i < pool; ++i) index_scratch[i] = i;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t j =
          i + static_cast<std::uint32_t>(next_below(pool - i));
      std::swap(index_scratch[i], index_scratch[j]);
      out.push_back(index_scratch[i]);
    }
    return;
  }
  // Sparse case: rejection against a bitmap instead of a hash set — the
  // accept/reject outcome per draw is identical (pure membership), so the
  // draw stream matches the allocating form exactly.
  if (seen_scratch.size() < pool) seen_scratch.assign(pool, 0);
  while (out.size() < k) {
    const auto c = static_cast<std::uint32_t>(next_below(pool));
    if (!seen_scratch[c]) {
      seen_scratch[c] = 1;
      out.push_back(c);
    }
  }
  for (const std::uint32_t c : out) seen_scratch[c] = 0;  // leave all-zero
}

}  // namespace churnstore
