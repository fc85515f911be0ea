#include "graph/regular_generator.h"

#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "graph/properties.h"

namespace churnstore {

namespace {

// Safety valve on the repair/regenerate loop.
constexpr int kMaxAttempts = 64;

// Packs an undirected edge into a 64-bit key with min vertex first.
std::uint64_t edge_key(Vertex a, Vertex b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct PairingResult {
  std::vector<std::pair<Vertex, Vertex>> edges;
  bool ok = false;
};

// Pairs the n*d stubs, then repairs self-loops and parallel edges by random
// double-edge swaps. Returns ok=false if the repair loop stalls.
PairingResult pair_stubs(Vertex n, std::uint32_t d, Rng& rng) {
  PairingResult res;
  const std::size_t m = static_cast<std::size_t>(n) * d / 2;
  std::vector<Vertex> stubs;
  stubs.reserve(m * 2);
  for (Vertex v = 0; v < n; ++v)
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  rng.shuffle(stubs);

  auto& edges = res.edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    edges.emplace_back(stubs[2 * i], stubs[2 * i + 1]);

  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < m; ++i) {
    auto [a, b] = edges[i];
    if (a == b || !seen.insert(edge_key(a, b)).second) bad.push_back(i);
  }

  // Repair: swap a bad edge with a random partner edge; accept only swaps
  // that make both results valid.
  std::size_t stall = 0;
  const std::size_t stall_limit = 200 * (bad.size() + 8);
  while (!bad.empty()) {
    if (++stall > stall_limit) return res;  // ok = false
    const std::size_t bi = bad.back();
    auto [a, b] = edges[bi];
    const std::size_t oi = static_cast<std::size_t>(rng.next_below(m));
    if (oi == bi) continue;
    auto [c, e] = edges[oi];
    // Candidate replacement: {a, e} and {c, b} (coin flip orients the swap).
    if (rng.bernoulli(0.5)) std::swap(c, e);
    if (a == e || c == b) continue;
    const bool other_bad = (c == e) || (edges[oi].first == edges[oi].second);
    const std::uint64_t old_other = edge_key(edges[oi].first, edges[oi].second);
    // Remove the other edge from `seen` only if it was validly inserted.
    const bool other_in_seen = !other_bad && seen.count(old_other) > 0;
    if (other_in_seen) seen.erase(old_other);
    const std::uint64_t k1 = edge_key(a, e);
    const std::uint64_t k2 = edge_key(c, b);
    if (k1 == k2 || seen.count(k1) || seen.count(k2)) {
      if (other_in_seen) seen.insert(old_other);
      continue;
    }
    seen.insert(k1);
    seen.insert(k2);
    edges[bi] = {a, e};
    edges[oi] = {c, b};
    bad.pop_back();
    // If the partner edge was itself bad it has now been fixed too; it will
    // be found (and skipped) when its index is reached because it is valid.
    if (other_bad) {
      for (std::size_t j = 0; j < bad.size(); ++j) {
        if (bad[j] == oi) {
          bad[j] = bad.back();
          bad.pop_back();
          break;
        }
      }
    }
    stall = 0;
  }
  res.ok = true;
  return res;
}

RegularGraph build_from_edges(
    Vertex n, std::uint32_t d,
    const std::vector<std::pair<Vertex, Vertex>>& edges) {
  RegularGraph g(n, d);
  std::vector<std::uint32_t> fill(n, 0);
  for (const auto& [a, b] : edges) {
    g.set_edge(a, fill[a]++, b, fill[b]++);
  }
  return g;
}

}  // namespace

RegularGraph random_regular_graph(Vertex n, std::uint32_t d, Rng& rng) {
  if (d == 0 || n < d + 1) {
    throw std::invalid_argument("random_regular_graph: need n >= d + 1, d >= 1");
  }
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular_graph: n * d must be even");
  }
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    PairingResult pr = pair_stubs(n, d, rng);
    if (!pr.ok) continue;
    RegularGraph g = build_from_edges(n, d, pr.edges);
    // Paper assumptions: connected, and non-bipartite so walks mix.
    if (!is_connected(g) || is_bipartite(g)) continue;
    return g;
  }
  throw std::runtime_error(
      "random_regular_graph: failed to generate a valid graph");
}

}  // namespace churnstore
