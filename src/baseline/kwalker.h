// Baseline: k-walker unstructured search (Lv et al. style, paper's related
// work on random-walk search in unstructured P2P networks). The item sits
// at a replication set of random nodes with no maintenance; a search
// launches k walker agents that move one hop per round and succeed when a
// walker lands on a holder. Under churn both holders and in-flight walkers
// die, so success decays with churn — the soup/committee design fixes both
// failure modes.
//
// Runs as a Protocol module on the shared driver; register after the
// TokenSoup it samples placement targets from.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol.h"
#include "core/service.h"
#include "net/network.h"
#include "util/rng.h"
#include "walk/token_soup.h"

namespace churnstore {

class KWalkerSearch final : public Protocol, public StorageService {
 public:
  /// An item gets ceil(sqrt(n)) holders.
  struct Options {
    std::uint32_t walkers = 16;  ///< k
    std::uint64_t item_bits = 1024;
  };

  KWalkerSearch(TokenSoup& soup, Options options);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "k-walker";
  }
  void on_attach(Network& net) override;
  /// Sharded round: the serial prologue censors searches whose initiator
  /// churned out; walkers are global agents, so the round partitions the
  /// WALKER index range (not the vertex range) across the same shard count;
  /// every walker draws from its own per-(round, index) stream, and its
  /// processing charge, hit or survival stages per shard; the merge applies
  /// them in canonical walker-index order. Walkers at churned vertices die
  /// (on_churn).
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// --- StorageService -----------------------------------------------------
  /// Places replicas from the creator's walk samples; false while its
  /// buffer is cold.
  bool try_store(Vertex creator, ItemId item) override;
  /// Launches k walkers with a TTL of 4 tau. The search is done when a
  /// walker lands on a holder, or unlocated once its last walker dies (churn
  /// or TTL), within search_timeout(). A search whose initiator churns out
  /// before it locates is done and censored.
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override;
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override {
    return ttl_ + 2;
  }
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override;

  /// Walkers killed with their churned carriers so far (god view).
  [[nodiscard]] std::uint64_t walkers_lost() const noexcept {
    return walkers_lost_;
  }

 private:
  struct Walker {
    std::uint64_t sid;
    ItemId item;
    Vertex at;
    std::uint32_t ttl;
  };

  TokenSoup& soup_;
  Options options_;
  std::uint64_t stream_salt_ = 0;
  std::uint32_t ttl_ = 0;
  std::uint64_t next_sid_ = 1;
  std::uint64_t walkers_lost_ = 0;
  // shardcheck:arena-backed(per-vertex replica sets grow on placement messages; baseline control plane, no heap-quiet claim)
  std::vector<std::unordered_set<ItemId>> held_;
  // shardcheck:cold-state(god-view placement map mutated only from the serial store path)
  std::unordered_map<ItemId, std::vector<PeerId>> placed_;
  // shardcheck:cold-state(walker population rebuilt in the serial merge from staged survivors)
  std::vector<Walker> walkers_;
  /// Per-search accounting. All k walkers start with the same TTL, so the
  /// ones churn spares expire together at `deadline`; a miss is done once
  /// `walkers` reaches 0 or the deadline passes.
  struct Search {
    WorkloadOutcome outcome;
    Round deadline;
    std::uint32_t walkers;  ///< not yet churned out
    PeerId initiator;       ///< censors the search if it leaves first
  };
  // shardcheck:cold-state(search registry mutated in serial search/churn/merge context)
  std::unordered_map<std::uint64_t, Search> searches_;
  /// Searches not yet done, in start order; the serial prologue censors the
  /// ones whose initiator churned out and drops the finished ones.
  // shardcheck:cold-state(appended by the serial begin_search() path, compacted in the serial prologue)
  std::vector<std::uint64_t> pending_;
  /// Sampled probes awaiting an end event (obs/trace.h), resolved in the
  /// serial merge the round their search is done. Usually empty (only
  /// sampled probes).
  struct TracedProbe {
    std::uint64_t sid;
    Vertex initiator;
    Round start;
  };
  // shardcheck:cold-state(mutated only in serial begin_search()/merge context)
  std::vector<TracedProbe> traced_;
  /// Walker-index partition for the current round (set in the prologue).
  ShardPlan walker_plan_;
  /// Per-shard staging: surviving walkers, this round's hits and the
  /// walkers' (vertex, bits) processing charges, merged in ascending shard
  /// (= walker index) order.
  struct ShardStage {
    std::vector<Walker> survivors;
    std::vector<std::uint64_t> hit_sids;
    std::vector<std::pair<Vertex, std::uint64_t>> charges;
  };
  // shardcheck:cold-state(outer vector sized to the shard count at attach; inner staging vectors carry reasoned R6 suppressions at their growth sites)
  std::vector<ShardStage> stage_;
};

}  // namespace churnstore
