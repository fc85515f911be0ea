// Data items: identifiers, payload generation, and integrity hashing.
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "util/rng.h"

namespace churnstore {

/// FNV-1a content hash used to verify end-to-end integrity of retrievals.
[[nodiscard]] std::uint64_t content_hash(const std::uint8_t* data,
                                         std::size_t len);
[[nodiscard]] std::uint64_t content_hash(const std::vector<std::uint8_t>& data);

/// Deterministic pseudo-random payload of `bits` bits for item `id`.
[[nodiscard]] std::vector<std::uint8_t> make_payload(ItemId id, std::uint64_t bits);

}  // namespace churnstore
