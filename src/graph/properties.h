// Structural predicates on RegularGraph: connectivity and bipartiteness.
// Used by the generator's guarantee loop, the rewirer's audit and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace churnstore {

[[nodiscard]] bool is_connected(const RegularGraph& g);

/// Scratch-reusing overload for callers on the round path (the Rewirer's
/// periodic connectivity audit): `dist_scratch` and `queue_scratch` grow to
/// n on the first call and are reused in place after, so the check is
/// allocation-free at steady state (HeapQuiesceScope polices the rounds it
/// runs inside).
[[nodiscard]] bool is_connected(const RegularGraph& g,
                                std::vector<std::int32_t>& dist_scratch,
                                std::vector<Vertex>& queue_scratch);

/// True if the graph is 2-colorable. The paper requires non-bipartite
/// expanders so lazy-free random walks still mix.
[[nodiscard]] bool is_bipartite(const RegularGraph& g);

}  // namespace churnstore
