// Baseline: birthday-paradox sqrt(n) replication (the "well known solution"
// paper section 4 discusses and rejects). The creator places the item at
// ~c * sqrt(n log n) random nodes (chosen through walk samples); a searcher
// probes its own fresh walk samples each round and succeeds when a probe
// lands on a holder. There is NO maintenance: churn steadily erodes the
// holder set, so availability decays — the pitfall the committee-based
// protocol fixes.
//
// Runs as a Protocol module on the shared driver; register after the
// TokenSoup it samples placement targets and probes from.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol.h"
#include "core/service.h"
#include "net/network.h"
#include "walk/token_soup.h"

namespace churnstore {

class SqrtReplication final : public Protocol, public StorageService {
 public:
  /// An item gets ceil(sqrt(n ln n)) copies, and a searcher probes every
  /// fresh sample each round.
  struct Options {
    std::uint64_t item_bits = 1024;
  };

  SqrtReplication(TokenSoup& soup, Options options);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sqrt-replication";
  }
  void on_attach(Network& net) override;
  /// Sharded round: the serial prologue handles per-search bookkeeping
  /// (censoring, deadlines, compaction) and stages one probe job per live
  /// search; the sharded phase sends each job's probes from the initiator
  /// vertex's own shard through ctx.
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// --- StorageService -----------------------------------------------------
  /// Places replicas from the creator's samples; false while its buffer is
  /// cold (retry next round).
  bool try_store(Vertex creator, ItemId item) override;
  /// Begins a search with a deadline of 4 tau.
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override;
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override {
    return timeout_ + 2;
  }
  /// Live holders of the item (god view, for the decay measurement).
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override;

 private:
  struct ActiveSearch {
    std::uint64_t sid;
    ItemId item;
    PeerId initiator;
    Round deadline;
  };

  TokenSoup& soup_;
  Options options_;
  std::uint32_t timeout_ = 0;
  std::uint64_t next_sid_ = 1;
  // shardcheck:arena-backed(per-vertex replica sets grow on placement messages; baseline control plane, no heap-quiet claim)
  std::vector<std::unordered_set<ItemId>> held_;
  // shardcheck:cold-state(god-view placement map mutated only from the serial store path)
  std::unordered_map<ItemId, std::vector<PeerId>> placed_;  ///< god view
  // shardcheck:cold-state(active-search list maintained in serial prologue/epilogue context)
  std::vector<ActiveSearch> active_;
  // shardcheck:cold-state(outcome registry mutated in serial search/merge context)
  std::unordered_map<std::uint64_t, WorkloadOutcome> outcomes_;
  /// Probe jobs for this round, staged by the prologue; read-only in the
  /// sharded phase (each shard sends the jobs owned by its vertices).
  struct ProbeJob {
    Vertex initiator;
    ItemId item;
    std::uint64_t sid;
  };
  // shardcheck:cold-state(rebuilt by the serial prologue each round; read-only in the sharded phase)
  std::vector<ProbeJob> probe_jobs_;
};

}  // namespace churnstore
