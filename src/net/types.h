// Fundamental identifier types shared by all protocol modules.
#pragma once

#include <cstdint>

#include "graph/graph.h"  // Vertex

namespace churnstore {

/// Globally unique, never-reused peer identifier (the "IP address"
/// abstraction of the paper: knowing a PeerId lets you message that peer).
using PeerId = std::uint64_t;
inline constexpr PeerId kNoPeer = 0;
/// The largest id a peer can hold: a walk token carries its source id in
/// the top 48 bits of one 64-bit word (walk/token_soup.h).
inline constexpr PeerId kMaxPeerId = (PeerId{1} << 48) - 1;

/// Unique identifier of a stored data item (e.g. its hash).
using ItemId = std::uint64_t;

/// Round counter of the synchronous execution.
using Round = std::int64_t;

}  // namespace churnstore
