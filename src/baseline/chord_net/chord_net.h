// Baseline: message-accurate Chord DHT on the shared Network engine.
//
// Every protocol action is a typed Message charged through the normal
// outbox lanes, so the golden bit-charge accounting and the per-node traffic
// columns apply to Chord exactly as they do to the paper stack:
//
//   * identifier ring — each peer's position is a 64-bit hash of its PeerId;
//     vertex slots are Chord nodes, and a churned-in peer must re-JOIN
//     (bootstrap via a live graph neighbor, then find_successor of its own
//     id) before it participates;
//   * successor lists + finger tables — per-vertex routing state, repaired
//     by staggered periodic stabilize/notify and one fix_fingers lookup per
//     maintenance tick (net/periodic.h schedules the stagger);
//   * iterative find_successor — the initiator drives the lookup hop by hop
//     (kChordLookup/kChordLookupReply), so every handler touches only the
//     receiving vertex's state, which is what makes the whole protocol
//     shard-safe under the ShardContext contract;
//   * data — items live at the first r successors of their id; the primary
//     pushes replicas (kChordTransfer), fetches carry the real payload
//     bytes (kChordFetch/kChordFetchReply) and are hash-verified end to
//     end, and ranges hand over on predecessor changes.
//
// Sharded execution: round work (joins, stabilize ticks, replica pushes,
// lookup retries) runs per vertex in ascending order inside each shard;
// message handlers mutate only the destination vertex's state; global
// counters are staged per shard and summed in the merge hooks — so results
// are bit-identical for every shards= value, serial or pooled
// (tests/chord_net_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "core/service.h"
#include "net/network.h"
#include "stats/histogram.h"
#include "net/periodic.h"

namespace churnstore {

class ChordNetProtocol final : public Protocol, public StorageService {
 public:
  using ChordId = std::uint64_t;

  /// The successor-list length r (8, also the replica set size) and the
  /// stabilize (2) and replicate (8) periods are constants of chord_net.cpp.
  struct Options {
    std::uint64_t item_bits = 1024;
  };

  /// Aggregated protocol statistics (order-independent sums/maxima, so the
  /// per-shard staging merge is trivially shard-count invariant).
  struct LookupStats {
    std::uint64_t searches_ok = 0;      ///< fetch-verified successes
    std::uint64_t searches_failed = 0;  ///< deadline / candidates exhausted
    std::uint64_t stores_ok = 0;        ///< ack-confirmed placements
    std::uint64_t stores_failed = 0;    ///< store deadline expired unacked
    std::uint64_t hop_messages = 0;     ///< kChordLookup messages sent
    std::uint64_t ok_hops_sum = 0;      ///< hops summed over successes
    std::uint64_t ok_hops_max = 0;
    std::uint64_t maintenance_messages = 0;  ///< stabilize/notify/replies
    std::uint64_t transfers = 0;             ///< replica pushes + handovers
    std::uint64_t joins_completed = 0;
    /// Full hop-count distribution over successful searches (unit bins over
    /// [0, 256)); sum/max above stay for the legacy columns, this feeds the
    /// E14 p50/p95/p99 hop columns and the obs exports.
    Histogram ok_hops{0.0, 256.0, 256};

    [[nodiscard]] double mean_hops() const noexcept {
      return searches_ok ? static_cast<double>(ok_hops_sum) /
                               static_cast<double>(searches_ok)
                         : 0.0;
    }
    void accumulate(const LookupStats& o) noexcept;
    /// Zero every counter and histogram count in place (no reallocation —
    /// the per-round shard-stats reset runs on the round path).
    void reset() noexcept;
  };

  ChordNetProtocol() : ChordNetProtocol(Options{}) {}
  explicit ChordNetProtocol(Options options);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "chord-net";
  }
  void on_attach(Network& net) override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_dispatch_merge() override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// --- payload API (tests) -----------------------------------------------
  /// Store `payload` under `item` from the peer at `creator`: routes a
  /// find_successor lookup for the item id, then transfers the payload to
  /// the r successors. False when the item id is already stored.
  bool put(Vertex creator, ItemId item, std::vector<std::uint8_t> payload);

  struct SearchRec {
    WorkloadOutcome out;
    ItemId item = 0;
    std::vector<std::uint8_t> value;  ///< verified payload on success
  };
  [[nodiscard]] const SearchRec* record(std::uint64_t sid) const;

  /// --- StorageService -----------------------------------------------------
  /// put() of the item's deterministic payload; false while the creator is
  /// still rejoining the ring.
  bool try_store(Vertex creator, ItemId item) override;
  /// Begin a lookup+fetch for `item`; returns a search handle. The fetch
  /// succeeds only when the returned bytes hash-match the stored payload.
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override;
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override {
    return deadline_rounds_ + 4;
  }
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override;

  /// --- god-view instrumentation (serial context only) ---------------------
  [[nodiscard]] const LookupStats& stats() const noexcept { return totals_; }
  /// Fraction of joined vertices whose succ[0] is the true live successor
  /// (over the ring of joined vertices). 1.0 on a converged ring.
  [[nodiscard]] double ring_consistency() const;
  [[nodiscard]] std::size_t joined_count() const;
  [[nodiscard]] bool is_joined(Vertex v) const { return nodes_[v].joined; }

 private:
  struct Entry {
    PeerId peer = kNoPeer;
    ChordId id = 0;
  };

  struct NodeState {
    ChordId id = 0;
    PeerId pred = kNoPeer;
    ChordId pred_id = 0;
    Round pred_seen = -1;  ///< round of the last notify from pred
    std::vector<Entry> succ;    ///< ordered successor list (<= r entries)
    std::vector<Entry> finger;  ///< finger k covers distance 2^(63-k)
    std::uint32_t next_finger = 0;
    bool joined = false;
    Round stab_sent = -1;  ///< round of the outstanding stabilize, -1 none
    PeerId stab_target = kNoPeer;  ///< who that stabilize was sent to
    std::uint32_t next_token = 1;
  };

  struct Lookup {
    enum class Kind : std::uint8_t { kJoin, kFinger, kStore, kSearch };
    std::uint32_t token = 0;
    Kind kind = Kind::kSearch;
    ChordId key = 0;  ///< ring target; equals the ItemId for store/search
    std::uint64_t sid = 0;
    std::uint8_t finger_idx = 0;
    PeerId hop = kNoPeer;  ///< outstanding hop/fetch target; kNoPeer = unsent
    Round sent = 0;
    std::uint32_t hops = 0;
    Round deadline = 0;
    bool fetching = false;
    bool storing = false;  ///< transfers sent, awaiting a kChordStoreAck
    std::uint32_t fetch_idx = 0;
    std::uint64_t trace = 0;  ///< sampled trace id (0 = untraced)
    Round started = 0;        ///< round the request was issued (traced only)
    std::vector<Entry> candidates;       ///< holder + successors, once found
    std::vector<PeerId> dead;            ///< timed-out peers, never re-tried
    std::vector<std::uint8_t> payload;   ///< kStore: bytes to place
  };

  struct ItemInfo {
    std::uint64_t hash = 0;
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] static ChordId chord_id(PeerId p) noexcept;
  /// x in (a, b] on the ring; (a, a] is the full ring.
  [[nodiscard]] static bool in_oc(ChordId a, ChordId x, ChordId b) noexcept;
  /// x in (a, b) on the ring; (a, a) is the full ring minus a.
  [[nodiscard]] static bool in_oo(ChordId a, ChordId x, ChordId b) noexcept;
  [[nodiscard]] ChordId finger_target(ChordId id, std::uint32_t k) const noexcept;

  void init_ring();
  [[nodiscard]] static bool contains_peer(const std::vector<PeerId>& list,
                                          PeerId p) noexcept;
  [[nodiscard]] Entry closest_preceding(const NodeState& s, ChordId key,
                                        const std::vector<PeerId>& dead) const;
  void adopt_successors(NodeState& s, const Entry& head,
                        const std::vector<Entry>& rest, PeerId self);
  /// Passive finger maintenance: any live (peer, id) carried by protocol
  /// traffic (stabilize replies, lookup acks/candidates, notifies) may
  /// improve a finger slot — at zero extra messages. Under heavy churn this
  /// is what keeps routing tables fresher than the one-lookup-per-tick
  /// fix_fingers cycle alone can.
  void learn_entry(NodeState& s, const Entry& e);
  /// Drop every routing-table reference to a peer we just presumed dead.
  void forget_peer(NodeState& s, PeerId p);

  void maintain_join(Vertex v, NodeState& s, Round now);
  void tick_stabilize(Vertex v, NodeState& s, Round now, ShardContext& ctx,
                      LookupStats& st);
  void tick_replicate(Vertex v, NodeState& s, Round now, ShardContext& ctx,
                      LookupStats& st);
  void advance_lookups(Vertex v, Round now, ShardContext& ctx,
                       LookupStats& st);
  [[nodiscard]] Message make_lookup(PeerId src, PeerId dst,
                                    const Lookup& lk) const;
  /// True when the lookup is finished and should be erased.
  bool issue_hop(Vertex v, Lookup& lk, Round now, ShardContext& ctx,
                 LookupStats& st);
  bool complete_resolution(Vertex v, Lookup& lk, std::vector<Entry> candidates,
                           Round now, ShardContext& ctx, LookupStats& st);
  bool advance_fetch(Vertex v, Lookup& lk, Round now, ShardContext& ctx,
                     LookupStats& st);
  /// A verified fetch of `len` bytes ends the search: the record, the hop
  /// stats and the trace's end event.
  void finish_search_success(Vertex v, const Lookup& lk, Round now,
                             const std::uint8_t* data, std::size_t len,
                             ShardContext& ctx, LookupStats& st);
  void finish_search_failure(Vertex v, const Lookup& lk, Round now,
                             ShardContext& ctx, LookupStats& st);
  [[nodiscard]] bool verify_payload(ItemId item,
                                    const std::uint8_t* data,
                                    std::size_t len) const;
  void send_notify(Vertex v, const NodeState& s, ShardContext& ctx,
                   LookupStats& st);
  /// ack_token != 0 asks the receiver to confirm the placement back to us.
  void send_transfer(Vertex v, PeerId to, ItemId item,
                     const std::vector<std::uint8_t>& bytes, bool primary,
                     ShardContext& ctx, LookupStats& st,
                     std::uint64_t ack_token = 0);

  /// A stored copy with its lease: the primary re-pushes every replicate
  /// tick, refreshing the lease; a copy whose lease expires (its holder
  /// left the key's successor set, or the primary died) is dropped at the
  /// next tick — this is what keeps the replica set near r instead of
  /// creeping toward flooding as handovers spread copies.
  struct Replica {
    std::vector<std::uint8_t> bytes;
    Round refreshed = 0;
  };

  Options options_;
  PeriodicSchedule stabilize_;
  PeriodicSchedule replicate_;
  std::uint32_t finger_count_ = 0;
  std::uint32_t deadline_rounds_ = 0;
  std::uint64_t seed_ = 0;

  // shardcheck:cold-state(sized to n at attach in serial context; handlers mutate each vertex's NodeState in place)
  std::vector<NodeState> nodes_;
  /// Per-vertex replica store; std::map so handover/replication iterate keys
  /// in a canonical (ascending) order for every shard count.
  // shardcheck:arena-backed(replica maps grow on transfer/replication messages — O(items x r) global-heap nodes; the chord baseline control plane makes no heap-quiet claim)
  std::vector<std::map<ItemId, Replica>> keys_;
  // shardcheck:arena-backed(per-vertex active-lookup lists grow on lookup starts: O(active lookups), no heap-quiet claim)
  std::vector<std::vector<Lookup>> lookups_;

  /// Stored-item registry (hash for end-to-end verification). Written from
  /// serial context only; dispatch handlers only find().
  // shardcheck:cold-state(written from serial context only; dispatch handlers only find())
  std::unordered_map<ItemId, ItemInfo> items_;
  // shardcheck:cold-state(search registry grown only from the serial begin_search() API path)
  std::unordered_map<std::uint64_t, SearchRec> records_;
  std::uint64_t next_sid_ = 1;

  /// Per-shard staged counters, summed into totals_ in the merge hooks.
  // shardcheck:cold-state(sized to the shard count at attach; hooks bump counters in place)
  std::vector<LookupStats> shard_stats_;
  LookupStats totals_;
};

}  // namespace churnstore
