// Committee election and maintenance (paper Algorithm 1).
//
// A committee is a clique of ~h log n near-random nodes entrusted with a
// persistent task (storing an item, or driving a search). Creation: the
// creator invites h log n of its walk samples. Maintenance: every 2*tau
// rounds the members (1) count the walks they received in the anchor round,
// (2) exchange counts so the ranking is common knowledge, (3) the top-ranked
// member c_r invites the sources of h log n walks that stopped at it in the
// anchor round to form the next committee, and (4) the old members resign.
//
// The paper's footnote (c_r may be churned out) is realized explicitly:
// the top R = 2 (kLeaderRedundancy) ranked members all issue invitations,
// candidates announce themselves to the clique, and every lower-ranked
// candidate that observes a higher-ranked announcement dissolves its own
// formation — so exactly one new committee survives whenever at least one
// candidate lives through the 3-round handover window.
//
// Per-cycle message timeline, with t = round - epoch_base (mod P = 2*tau):
//   t=0  anchor: samples of this round are the cycle's currency
//   t=1  members send kCommitteeCount (plus their IDA piece, section 4.4)
//   t=2  top-R candidates send kCommitteeInvite + kCommitteeCandidateAlive
//   t=3  invitees send kCommitteeAccept; outranked candidates send dissolve
//   t=4  surviving best candidate sends kCommitteeConfirm (with payload)
//   t=5  old members resign
//
// Ranking: a member keeps no list of its peers' counts. It counts the
// count messages that beat its own (count, peer id), a higher count or an
// equal count and a higher id; that number is its rank at t=2 (0 = best).
//
// Staging: the round phase touches only its shard's vertices. What it owes
// the shared layers (the god-view registry, the landmark-rebuild hook, the
// committee counters) it stages per shard, and the staged confirms and
// rebuilds are spans into the memberships themselves. So the memberships
// that resign or expire this round are staged as (vertex, kid) too, and the
// merge erases them after the hook and the registry have read the spans.
// No protocol runs between a round phase and its merge.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "net/config.h"
#include "net/network.h"
#include "storage/erasure_store.h"
#include "walk/token_soup.h"

namespace churnstore {

enum class Purpose : std::uint8_t { kStorage = 0, kSearch = 1 };

/// Sentinel piece index meaning "full replica, not an IDA piece".
inline constexpr std::uint32_t kNoPiece = 0xffffffffu;

/// Confirmed committee-member state held at one vertex.
struct Membership {
  std::uint64_t kid = 0;       ///< committee instance id (== item id for storage)
  Purpose purpose = Purpose::kStorage;
  ItemId item = 0;
  PeerId search_root = kNoPeer;  ///< initiator to report to (search only)
  Round epoch_base = 0;          ///< phase reference for the refresh cycle
  Round expire = -1;             ///< dissolve deadline (< 0: persistent)
  std::vector<PeerId> members;   ///< the clique (includes self)
  std::vector<std::uint8_t> payload;  ///< item replica or IDA piece bytes
  std::uint32_t piece_index = kNoPiece;
  std::uint32_t ida_k = 0;            ///< pieces needed (erasure mode)
  std::uint64_t original_size = 0;    ///< item size before encoding

  // --- per-cycle scratch, reset each refresh ---------------------------
  std::uint32_t my_count = 0;
  /// Count messages this cycle that beat (my_count, self): the rank.
  std::uint32_t better = 0;
  std::vector<IdaPiece> gathered_pieces;
  bool candidate = false;
  std::uint32_t my_rank = 0;
  std::uint32_t best_alive_rank = 0xffffffffu;
  bool dissolved = false;
  /// Set when a successor committee confirmed this cycle; old members only
  /// resign after a successful handover (the paper explicitly allows
  /// postponing resignation to ensure smooth task transition).
  bool handover_seen = false;
  std::vector<PeerId> invited;
  std::vector<PeerId> accepted;
};

/// One landmark tree (re)build a confirmed member owes this round: at
/// creation and every rebuild period. The round phase stages it per shard,
/// and the merge hands it to the landmark-rebuild hook before it erases
/// any membership, so `members` still points into the member's clique.
struct LandmarkRebuild {
  Vertex vertex = 0;
  std::uint64_t kid = 0;
  ItemId item = 0;
  Purpose purpose = Purpose::kStorage;
  PeerId search_root = kNoPeer;
  std::span<const PeerId> members;
};

class CommitteeManager final : public Protocol {
 public:
  CommitteeManager(TokenSoup& soup, const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "committee";
  }
  void on_attach(Network& net) override;
  /// Sharded round: every shard runs the refresh-cycle phases for its own
  /// vertices (per-(round, vertex) RNG streams, sends through ctx); registry
  /// updates, landmark rebuilds, and committee counters are staged per shard
  /// and applied at the merge in canonical order.
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  /// Message handlers only touch the receiving vertex's maps (plus the
  /// per-shard active flags).
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// Create a committee entrusted with (purpose, item). Returns false when
  /// the creator does not yet hold enough walk samples (caller retries).
  /// `payload` is the full item content; in erasure mode it is IDA-encoded
  /// and spread one piece per member.
  bool create(Vertex creator, std::uint64_t kid, Purpose purpose, ItemId item,
              PeerId search_root, const std::vector<std::uint8_t>& payload,
              Round expire);

  /// --- lookup -----------------------------------------------------------
  [[nodiscard]] const Membership* membership_at(Vertex v, std::uint64_t kid) const;

  /// Vertices currently holding at least one membership (up to `max`).
  /// Used by the *adaptive* adversary demonstration — a capability the
  /// paper's oblivious model explicitly denies the adversary.
  [[nodiscard]] std::vector<Vertex> occupied_vertices(std::uint32_t max) const;

  /// Install this manager's occupied vertices as the kAdaptive adversary's
  /// targeter (Network::set_adaptive_targeter). Deliberately violates the
  /// paper's oblivious model (see AdversaryKind::kAdaptive); call after
  /// attach.
  void expose_to_adaptive_adversary();

  /// Install the hook the merge calls once per staged LandmarkRebuild, in
  /// ascending shard order and staging order within a shard.
  /// LandmarkManager::on_attach installs its start_tree; with no hook the
  /// rebuilds are dropped.
  void set_landmark_rebuild_hook(
      std::function<void(const LandmarkRebuild&)> hook) {
    on_landmark_rebuild_ = std::move(hook);
  }

  /// --- god-view instrumentation (measurement only, never fed back) -----
  struct Info {
    ItemId item = 0;
    Purpose purpose = Purpose::kStorage;
    PeerId search_root = kNoPeer;
    Round created = 0;
    std::uint32_t generations = 0;  ///< successful re-formations
    std::vector<PeerId> last_members;
    /// content_hash of the payload given to create(); a fetched item must
    /// match it.
    std::uint64_t hash = 0;
  };
  [[nodiscard]] const Info* info(std::uint64_t kid) const;
  /// Number of peers of the last confirmed generation still in the network.
  [[nodiscard]] std::size_t alive_members(std::uint64_t kid) const;

  /// --- derived constants ---------------------------------------------------
  [[nodiscard]] std::uint32_t refresh_period() const noexcept { return period_; }
  [[nodiscard]] std::uint32_t target_size() const noexcept { return target_; }
  [[nodiscard]] std::uint32_t tau() const noexcept { return tau_; }
  [[nodiscard]] const ProtocolConfig& config() const noexcept { return config_; }

 private:
  struct PendingJoin {
    std::uint64_t kid = 0;
    std::uint32_t rank = 0;
    PeerId candidate = kNoPeer;
    Purpose purpose = Purpose::kStorage;
    ItemId item = 0;
    PeerId search_root = kNoPeer;
    Round new_base = 0;
    Round expire = -1;
    Round received = 0;
    bool accept_sent = false;
  };

  /// Per-shard staging for cross-shard state the round phase may not touch
  /// directly: the god-view registry, the landmark-rebuild hook, and the
  /// global committee counters, plus the memberships to erase once those
  /// have read them. Applied in on_round_merge, scanning shards in
  /// ascending order.
  struct ShardStage {
    struct Confirm {
      std::uint64_t kid;
      std::span<const PeerId> members;  ///< the confirmer's accepted list
    };
    std::vector<Confirm> confirms;
    std::vector<LandmarkRebuild> rebuilds;
    std::vector<std::pair<Vertex, std::uint64_t>> erases;  ///< (vertex, kid)
    std::uint64_t formed = 0;
    std::uint64_t lost = 0;
  };

  void run_cycle_phase(Vertex v, Membership& m, Round now, std::uint64_t t_mod,
                       Round anchor, ShardContext& ctx, ShardStage& stage);
  void send_invites(Vertex v, Membership& m, Round now, Round anchor,
                    ShardContext& ctx);
  void confirm_committee(Vertex v, Membership& m, Round now, Round anchor,
                         ShardContext& ctx, ShardStage& stage);
  /// Deterministic per-(round, vertex) sample pick; `rng` must be the
  /// vertex's stream for this round (vertex_rng), never a shared sequence.
  [[nodiscard]] std::vector<PeerId> pick_sources(Vertex v, Round anchor,
                                                 std::uint32_t want,
                                                 Rng& rng) const;
  /// Stream keyed by (round, vertex, kid): a vertex creating or leading
  /// several committees in one round draws independent randomness per kid.
  [[nodiscard]] Rng vertex_rng(Vertex v, std::uint64_t kid) const {
    return stream_rng(mix64(stream_salt_ ^ mix64(kid) ^
                            static_cast<std::uint64_t>(net().round())),
                      v);
  }

  TokenSoup& soup_;
  ProtocolConfig config_;
  ErasurePolicy erasure_;
  std::function<void(const LandmarkRebuild&)> on_landmark_rebuild_;
  std::uint64_t stream_salt_ = 0;
  std::uint32_t tau_ = 0;
  std::uint32_t period_ = 0;
  std::uint32_t target_ = 0;

  // shardcheck:arena-backed(per-vertex membership maps grow on committee events — O(events x log n) global-heap nodes per cycle; the committee control plane is outside the soup heap-quiet invariant)
  std::vector<std::unordered_map<std::uint64_t, Membership>> state_;
  // shardcheck:arena-backed(pending-join nodes: O(formation events) global-heap growth per cycle, same control-plane budget as state_)
  std::vector<std::unordered_map<std::uint64_t, PendingJoin>> pending_;
  // shardcheck:cold-state(god-view registry mutated only from the serial create path and the serial confirm merge)
  std::unordered_map<std::uint64_t, Info> registry_;
  /// Per-vertex "holds any membership/pending state" flags plus a per-shard
  /// population count, so each shard's round task scans its vertex range
  /// only when it has work (canonical ascending-vertex order either way).
  // shardcheck:cold-state(sized to n at attach in serial context; hooks flip flags in place)
  std::vector<std::uint8_t> active_flag_;
  // shardcheck:cold-state(sized to the shard count at attach; elements adjusted in place)
  std::vector<std::uint32_t> active_count_;  ///< per shard
  // shardcheck:cold-state(outer vector sized to the shard count at attach; the inner staging vectors carry reasoned R6 suppressions at their growth sites)
  std::vector<ShardStage> stage_;             ///< per shard

  void mark_active(Vertex v);
};

}  // namespace churnstore
