// Random d-regular simple graph generation (pairing/configuration model with
// conflict repair), plus a guarantee loop that rejects disconnected or
// bipartite outcomes so every generated graph satisfies the paper's
// topology assumptions (random d-regular graphs are expanders w.h.p.).
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace churnstore {

/// Generates a uniform-ish random d-regular simple graph on n vertices that
/// is connected and non-bipartite. Requires n >= d + 1 and n * d even.
/// Throws std::runtime_error if no valid graph is produced within a bounded
/// number of attempts (practically unreachable for d >= 3 and n >= 8).
[[nodiscard]] RegularGraph random_regular_graph(Vertex n, std::uint32_t d,
                                                Rng& rng);

}  // namespace churnstore
