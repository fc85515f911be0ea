#include "graph/rewirer.h"

#include "graph/properties.h"

namespace churnstore {

std::uint32_t Rewirer::do_swaps(RegularGraph& g, std::uint32_t count) {
  const std::size_t slots = g.slot_count();
  if (slots == 0) return 0;
  std::uint32_t done = 0;
  for (std::uint32_t t = 0; t < count; ++t) {
    const std::size_t s1 = static_cast<std::size_t>(rng_.next_below(slots));
    const std::size_t s2 = static_cast<std::size_t>(rng_.next_below(slots));
    const Vertex a = g.slot_owner(s1);
    const Vertex b = g.slot_target(s1);
    const Vertex c = g.slot_owner(s2);
    const Vertex e = g.slot_target(s2);
    // Proposed new edges {a, e} and {c, b}; reject anything that would make
    // a self-loop or a parallel edge, and degenerate picks sharing a slot.
    if (s1 == s2 || s1 == g.mirror(s2)) continue;
    if (a == e || c == b) continue;
    if (g.has_edge(a, e) || g.has_edge(c, b)) continue;
    g.swap_edges(s1, s2);
    ++done;
  }
  return done;
}

std::uint32_t Rewirer::apply(RegularGraph& g) {
  if (swaps_per_round_ == 0) return 0;
  // Provision the audit scratch on the first apply(), not on the first
  // audit: the audit can land arbitrarily deep into a run (check period),
  // and growing scratch there would break an established heap-quiet
  // steady state mid-measurement.
  if (dist_scratch_.capacity() < g.n()) {
    dist_scratch_.reserve(g.n());
    queue_scratch_.reserve(g.n());
  }
  std::uint32_t done = do_swaps(g, swaps_per_round_);
  total_swaps_ += done;
  if (++rounds_since_check_ >= kConnectivityCheckPeriod) {
    rounds_since_check_ = 0;
    // Random 2-swaps disconnect a d-regular expander only with tiny
    // probability; when it happens, additional mixing swaps reconnect it
    // quickly (the swap chain is irreducible over connected d-regular
    // graphs and disconnected states are a vanishing fraction).
    int guard = 0;
    while (!is_connected(g, dist_scratch_, queue_scratch_) && guard++ < 32) {
      ++repairs_;
      total_swaps_ += do_swaps(g, swaps_per_round_ + g.n());
    }
  }
  return done;
}

}  // namespace churnstore
