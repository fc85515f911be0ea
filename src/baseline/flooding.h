// Baseline: flooding storage (the naive solution of paper section 4, first
// paragraph). The creator floods the item through the network; every node
// stores a replica, so retrieval is trivially local and persistence is
// near-certain — at the cost of linear storage and per-node traffic
// proportional to d * |I| bits per round during the flood. Freshly churned-
// in nodes pull nothing, so coverage decays unless the item is re-flooded
// (optional refresh knob), which is exactly the scalability failure the
// paper's protocol avoids.
//
// Runs as a Protocol module on the shared driver; the StorageService facade
// models retrieval as a local lookup at the initiator (resolved one round
// after begin_search), which is flooding's whole selling point.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol.h"
#include "core/service.h"
#include "net/network.h"

namespace churnstore {

class FloodingStore final : public Protocol, public StorageService {
 public:
  struct Options {
    /// Re-flood from every holder each `refresh_period` rounds (0 = never).
    std::uint32_t refresh_period = 0;
    std::uint64_t item_bits = 1024;
  };

  explicit FloodingStore(Options options);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "flooding";
  }
  void on_attach(Network& net) override;
  /// Sharded round: pending lookups and refresh bookkeeping stay in the
  /// serial prologue; the flood frontier is partitioned per shard (entries
  /// staged to the shard owning the forwarding vertex) and each shard
  /// forwards its own vertices' items through ctx.
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// --- StorageService -----------------------------------------------------
  /// Injects the item at `creator`; it floods from there. Always ready.
  bool try_store(Vertex creator, ItemId item) override;
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override;
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override { return 2; }
  /// Nodes currently holding the item.
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override;

 private:
  struct PendingLookup {
    std::uint64_t sid = 0;
    PeerId initiator = kNoPeer;
    ItemId item = 0;
  };

  Options options_;
  // shardcheck:arena-backed(per-vertex replica sets grow with every newly received item — the flooding baseline allocates by design and makes no heap-quiet claim)
  std::vector<std::unordered_set<ItemId>> held_;
  // shardcheck:arena-backed(forwarding dedup sets grow with every first-seen item, same design budget as held_)
  std::vector<std::unordered_set<ItemId>> forwarded_;
  /// Per-shard flood frontier: entry (v, item) lives in v's shard queue, so
  /// each shard forwards only its own vertices' items (canonical order:
  /// ascending shard, staging order within the shard).
  // shardcheck:arena-backed(per-shard flood frontier grows with newly received items each round, by design)
  std::vector<std::vector<std::pair<Vertex, ItemId>>> frontiers_;
  std::uint64_t next_sid_ = 1;
  // shardcheck:cold-state(grown only from the serial begin_search() path)
  std::vector<PendingLookup> pending_lookups_;
  // shardcheck:cold-state(outcome registry mutated only from serial lookup bookkeeping)
  std::unordered_map<std::uint64_t, WorkloadOutcome> outcomes_;
};

}  // namespace churnstore
