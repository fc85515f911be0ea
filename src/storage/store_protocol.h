// Persistent storage of data items (paper Algorithm 3).
//
// Storing item I: the creator elects a committee entrusted with I (every
// member stores a replica — or one IDA piece in erasure mode), and the
// committee keeps rebuilding landmark trees so that Omega(sqrt(n)) random
// nodes can point searchers at the members. The committee instance id is
// the item id, which is how inquiry handlers look up "do I hold I?".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "landmark/landmark.h"
#include "net/network.h"
#include "storage/item.h"

namespace churnstore {

class StoreManager final : public Protocol {
 public:
  StoreManager(CommitteeManager& committees, LandmarkManager& landmarks,
               const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "store";
  }
  /// Issue a store of `payload` under id `item` from the peer at `creator`.
  /// Returns false if the creator lacks walk samples (retry next round).
  bool store(Vertex creator, ItemId item, std::vector<std::uint8_t> payload);

  [[nodiscard]] const ItemRecord* record(ItemId item) const;

  /// --- god-view measurements (experiments E6/E10) ------------------------
  /// Members of the item's current committee generation still alive.
  [[nodiscard]] std::size_t copies_alive(ItemId item) const;
  /// Live (unexpired) landmarks pointing at the item's committee.
  [[nodiscard]] std::size_t landmarks_alive(ItemId item) const;
  /// Definition 1 availability proxy: enough live copies to recover the
  /// item (1 replica, or ida_k pieces) AND a landmark set of size at least
  /// sqrt(n)/4 so searches can find them quickly.
  [[nodiscard]] bool is_available(ItemId item) const;
  /// Weaker predicate: the item content is still recoverable at all.
  [[nodiscard]] bool is_recoverable(ItemId item) const;

 private:
  CommitteeManager& committees_;
  LandmarkManager& landmarks_;
  ProtocolConfig config_;
  // shardcheck:cold-state(item registry grown only from the serial store() API path)
  std::unordered_map<ItemId, ItemRecord> records_;
};

}  // namespace churnstore
