// The uniform store/search facade over a protocol stack.
//
// Every storage scheme in the repository — the paper's committee protocol
// and all four baselines — exposes the same minimal workload surface:
// try to store an item, begin a search, poll the outcome. Apart from
// chord's byte-carrying put (tests store chosen bytes through it), the
// baselines have no other request API. The one store-then-search driver
// (drive_store_search, core/experiment.h) and the Runner drive ANY stack
// through this interface, so swapping the paper protocol for Chord or
// sqrt-replication is a ScenarioSpec field, not a new main().
//
// Semantics:
//  * try_store returns false while the protocol is not ready (e.g. cold
//    walk-sample buffers); the caller advances a round and retries.
//  * begin_search returns a search id; outcomes stabilize after
//    search_timeout() rounds of the driver.
//  * `located` is the paper's success criterion (a live holder identified);
//    `fetched` additionally requires the payload retrieved and verified.
//    Baselines without a payload-integrity path report fetched == located.
//  * God-view accessors (copies_alive, is_available) are measurement-only
//    and default to "no notion of this".
#pragma once

#include <cstdint>

#include "net/types.h"

namespace churnstore {

struct WorkloadOutcome {
  bool done = false;
  bool located = false;
  bool fetched = false;
  bool censored = false;  ///< initiator churned out before locating
  Round located_round = -1;  ///< absolute round of locate, -1 if none
  Round fetched_round = -1;
};

class StorageService {
 public:
  virtual ~StorageService() = default;

  /// Attempt to store `item` (deterministic payload) from the peer at
  /// `creator`. False = not ready yet, advance a round and retry.
  virtual bool try_store(Vertex creator, ItemId item) = 0;

  /// Begin a search for `item` from the peer at `initiator`.
  [[nodiscard]] virtual std::uint64_t begin_search(Vertex initiator,
                                                   ItemId item) = 0;

  [[nodiscard]] virtual WorkloadOutcome search_outcome(
      std::uint64_t sid) const = 0;

  /// Rounds the driver should run after a search batch before judging.
  [[nodiscard]] virtual std::uint32_t search_timeout() const = 0;

  /// --- god-view instrumentation (measurement only) ----------------------
  [[nodiscard]] virtual std::size_t copies_alive(ItemId item) const {
    (void)item;
    return 0;
  }
  [[nodiscard]] virtual bool is_available(ItemId item) const {
    return copies_alive(item) > 0;
  }
};

}  // namespace churnstore
