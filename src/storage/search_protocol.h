// Persistent storage and data retrieval (paper Algorithms 3 and 4).
//
// Storing item I: the creator elects a committee entrusted with I (every
// member stores a replica, or one IDA piece in erasure mode), and the
// committee keeps rebuilding landmark trees so that Omega(sqrt(n)) random
// nodes can point searchers at the members. CommitteeManager and
// LandmarkManager do all of that round work; store() only starts the
// committee. Its instance id is the item id, which is how inquiry
// handlers look up "do I hold I?".
//
// A node u searching for item I elects a *search committee* (with a
// dissolve deadline), which builds Omega(sqrt(n)) *search landmarks*. Every
// search landmark, each round, contacts the sources of the walk samples it
// just received and inquires about I; a contacted node that is a storage
// landmark or a storage-committee member for I replies with the storage
// member ids, the search landmark reports them to u, and u fetches the item
// (one replica, or K IDA pieces in erasure mode). Searches also succeed
// trivially when a search landmark itself already knows about I.
//
// The manager keeps one record per search id: the god-view SearchStatus
// the benches read (locate round: u learns a holder id, the paper's
// success criterion; fetch round: payload reconstructed and checked
// against the content hash the committee registry keeps for I; or
// failure: deadline passed / initiator churned out),
// plus what u itself knows: the distinct holder ids reported so far, the
// fetch cursor and, in erasure mode, the distinct pieces fetched. Reports
// and fetch replies are addressed to u's peer id, so delivery drops those
// of a churned initiator; the handlers ignore a finished search, and
// finishing or censoring a search releases its lists.
//
// The manager is also the paper stack's StorageService (core/service.h),
// as each baseline protocol is its own stack's.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "core/service.h"
#include "landmark/landmark.h"
#include "net/network.h"
#include "storage/item.h"
#include "walk/token_soup.h"

namespace churnstore {

struct SearchStatus {
  std::uint64_t sid = 0;
  ItemId item = 0;
  PeerId initiator = kNoPeer;
  Round start = 0;
  Round deadline = 0;
  Round committee_created = -1;
  Round located = -1;   ///< u first learned a live holder id
  Round fetched = -1;   ///< payload reconstructed at u
  bool fetch_ok = false;  ///< reconstructed content matched the stored hash
  std::vector<std::uint8_t> fetched_data;  ///< the retrieved item content
  bool initiator_churned = false;
  bool finished = false;
  std::uint64_t trace = 0;  ///< sampled trace id (obs/trace.h); 0 = untraced

  [[nodiscard]] bool succeeded_locate() const noexcept { return located >= 0; }
  [[nodiscard]] bool succeeded_fetch() const noexcept { return fetch_ok; }
};

class SearchManager final : public Protocol, public StorageService {
 public:
  SearchManager(TokenSoup& soup, CommitteeManager& committees,
                LandmarkManager& landmarks, const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "search";
  }
  void on_attach(Network& net) override;

  /// Issue a store of `payload` under id `item` from the peer at `creator`.
  /// Returns false if the creator lacks walk samples (retry next round).
  bool store(Vertex creator, ItemId item, std::vector<std::uint8_t> payload);

  /// Sharded round. Serial prologue: per-search bookkeeping (deadlines,
  /// censoring, committee creation, fetch issuance) — O(active searches).
  /// Sharded phase: the heavy part — every search landmark contacts the
  /// sources of the walks it received last round (Algorithm 4 step 2),
  /// fanned out over the landmark vertices' shards.
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;

  /// Routes kInquiry / kInquiryHit / kReport / kFetch*; true if consumed.
  /// Handlers touch the receiving vertex's state and the per-search record
  /// (only its initiator's vertex receives the search's reports and fetch
  /// replies), and reply through ctx.
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;

  [[nodiscard]] const SearchStatus* status(std::uint64_t sid) const;
  [[nodiscard]] std::size_t active_searches() const noexcept {
    return active_.size();
  }

  /// --- StorageService -----------------------------------------------------
  /// Stores the item's deterministic payload (config item_bits) from
  /// `creator`; false while the creator's walk samples are still cold.
  bool try_store(Vertex creator, ItemId item) override;
  /// Start a search for `item` from the peer at `initiator`. Returns the
  /// search id (always succeeds; committee creation retries internally).
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override;
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override {
    return timeout_;
  }

  /// --- god-view measurements (experiments E6/E10) ------------------------
  /// Members of the item's current committee generation still alive.
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override;
  /// Live (unexpired) landmarks pointing at the item's committee.
  [[nodiscard]] std::size_t landmarks_alive(ItemId item) const;
  /// Definition 1 availability proxy: enough live copies to recover the
  /// item (1 replica, or ida_k pieces) AND a landmark set of size at least
  /// sqrt(n)/4 so searches can find them quickly.
  [[nodiscard]] bool is_available(ItemId item) const override;
  /// Weaker predicate: the item content is still recoverable at all.
  [[nodiscard]] bool is_recoverable(ItemId item) const;

 private:
  struct Search {
    SearchStatus status;
    std::vector<PeerId> holders;   ///< distinct, in arrival order
    std::size_t next_fetch = 0;    ///< round-robin fetch cursor
    std::vector<IdaPiece> pieces;  ///< distinct pieces fetched (erasure)

    /// A finished search keeps only its status.
    void release() {
      holders = std::vector<PeerId>();
      pieces = std::vector<IdaPiece>();
    }
  };

  void finish(Search& s);
  /// Appends the ids in `ids` that `s` has not heard of yet.
  static void add_holders(Search& s, std::span<const PeerId> ids);
  void reply_if_holder(Vertex v, ItemId item, std::uint64_t sid, PeerId to,
                       ShardContext& ctx);
  void issue_fetches(Vertex v, Search& s);

  TokenSoup& soup_;
  CommitteeManager& committees_;
  LandmarkManager& landmarks_;
  ProtocolConfig config_;
  std::uint32_t timeout_ = 0;
  std::uint64_t next_sid_ = 1;

  // shardcheck:cold-state(records inserted only from the serial begin_search path; handlers mutate found records in place)
  std::unordered_map<std::uint64_t, Search> searches_;
  // shardcheck:cold-state(active-search id list maintained in serial prologue/epilogue context)
  std::vector<std::uint64_t> active_;
  /// This round's (landmark vertex, sid) inquiry jobs, collected by the
  /// serial prologue from the landmark index (O(live landmarks), not
  /// O(n)) and stably sorted by vertex: each shard owns a contiguous run,
  /// and the merged inquiry stream is identical for every shard count.
  // shardcheck:cold-state(rebuilt by the serial on_round_begin prologue each round)
  std::vector<std::pair<Vertex, std::uint64_t>> inquiry_jobs_;
};

}  // namespace churnstore
