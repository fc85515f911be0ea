// Edge dynamics: the adversary may change edges arbitrarily each round as
// long as the graph stays a d-regular non-bipartite expander. We realize
// this with random degree-preserving double-edge swaps (the standard Markov
// chain on d-regular simple graphs, whose stationary distribution is uniform
// — so sustained rewiring keeps the graph a uniform random d-regular graph,
// i.e. an expander w.h.p.). A connectivity guard re-checks every
// kConnectivityCheckPeriod rounds and rolls forward with extra swaps in the
// (rare) disconnected case.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace churnstore {

class Rewirer {
 public:
  /// Connectivity is re-checked every this many apply() calls.
  static constexpr std::uint32_t kConnectivityCheckPeriod = 64;

  /// `swaps_per_round` swaps are attempted per apply() call; 0 disables
  /// edge dynamics.
  Rewirer(std::uint32_t swaps_per_round, Rng rng)
      : swaps_per_round_(swaps_per_round), rng_(rng) {}

  /// Applies one round of edge dynamics to g. Returns swaps performed.
  std::uint32_t apply(RegularGraph& g);

  [[nodiscard]] std::uint64_t total_swaps() const noexcept { return total_swaps_; }
  [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }

 private:
  std::uint32_t do_swaps(RegularGraph& g, std::uint32_t count);

  std::uint32_t swaps_per_round_;
  Rng rng_;
  std::uint64_t total_swaps_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint32_t rounds_since_check_ = 0;
  /// BFS scratch for the periodic connectivity audit; apply() runs inside
  /// the round path, so the audit must not allocate at steady state.
  // shardcheck:cold-state(connectivity-audit BFS scratch grown to n on the first check, reused in place after)
  std::vector<std::int32_t> dist_scratch_;
  // shardcheck:cold-state(connectivity-audit BFS queue grown to n on the first check, reused in place after)
  std::vector<Vertex> queue_scratch_;
};

}  // namespace churnstore
