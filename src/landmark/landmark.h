// Landmark tree construction (paper Algorithm 2).
//
// Every committee member periodically grows a tree of "landmark" nodes:
// it picks `fanout` of its walk samples as children and sends them a grow
// message carrying the committee's member ids; each child becomes a
// landmark for the committee (it can point searchers at the members),
// then recruits `fanout` children of its own, one tree level per round, up
// to depth mu (paper equation 4). Landmarks expire after 2*tau rounds; the
// committee rebuilds the trees every tau rounds, so the live landmark set
// stays Omega(sqrt(n)) and near-uniformly distributed over the Core.
//
// Layout: one LandmarkTable per shard (landmark/landmark_table.h) holds its
// vertices' landmarks, one entry per (vertex, kid) in blocks that never
// move, behind a linear-probing index; the member list of a (kid, wave) is
// stored once per shard and the entries hold spans into it. The global
// kid -> vertices index lists each vertex at most once per kid.
//
// Churn rule: an entry belongs to the vertex's current peer iff it was
// created (expiry - ttl) at or after net().birth_round(v). Older entries
// are hidden, i.e. absent for every lookup, instead of being cleared when
// the peer leaves.
//
// Expiry rule: lookups hide an entry once expiry < now. The table only
// erases expired entries in sweep rounds (now % ttl == 0), and until then
// an expired entry still counts as present when a later wave recruits the
// same vertex (it is overwritten in place and not listed again).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "landmark/landmark_table.h"
#include "net/config.h"
#include "net/network.h"
#include "walk/token_soup.h"

namespace churnstore {

class LandmarkManager final : public Protocol {
 public:
  LandmarkManager(TokenSoup& soup, CommitteeManager& committees,
                  const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "landmark";
  }
  /// Installs start_tree as the committee's landmark-rebuild hook.
  void on_attach(Network& net) override;
  /// Sharded round: each shard grows its own vertices' pending tree levels
  /// (per-shard grow queues, sends through ctx) and sweeps its table's
  /// expired entries; the kid -> vertices index sweeps at the merge.
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  /// Routes kLandmarkGrow; touches only the receiving shard's table plus
  /// per-shard staging (grow queue, index additions, counters).
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_dispatch_merge() override;

  /// Start a new tree rooted at committee member `r.vertex`. Serial
  /// context only (the committee's merge calls it).
  void start_tree(const LandmarkRebuild& r);

  /// Landmark state at vertex v for committee kid (nullptr if none,
  /// expired, or created for an earlier peer of v). The pointer stays valid
  /// until the next sweep round.
  [[nodiscard]] const LandmarkState* state_at(Vertex v, std::uint64_t kid) const;

  /// Visit every live landmark of committee `kid`: fn(vertex, state).
  template <typename Fn>
  void for_each_landmark(std::uint64_t kid, Fn&& fn) {
    const auto it = index_.find(kid);
    if (it == index_.end()) return;
    const Round now = net().round();
    auto& verts = it->second;
    std::size_t write = 0;
    for (std::size_t read = 0; read < verts.size(); ++read) {
      const Vertex v = verts[read];
      LandmarkTable::Entry* e = keep_listed(v, kid, now);
      if (e == nullptr) continue;
      fn(v, e->st);
      verts[write++] = v;
    }
    verts.resize(write);
  }

  /// Number of currently live landmarks for committee kid (exact count).
  [[nodiscard]] std::size_t live_count(std::uint64_t kid) const;

  [[nodiscard]] std::uint32_t tree_depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint32_t ttl() const noexcept { return ttl_; }

  /// Shard `shard`'s table (entry and list counts, for tests).
  [[nodiscard]] const LandmarkTable& table(std::uint32_t shard) const {
    return tables_[shard];
  }

 private:
  /// Sends through ctx when given (sharded round phase), else serially.
  void grow_children(Vertex v, LandmarkState& st, ShardContext* ctx);
  /// The entry at (v, kid) whatever its state, or nullptr.
  [[nodiscard]] LandmarkTable::Entry* held(Vertex v, std::uint64_t kid) const;
  /// True when `e` (held at v) was created for v's current peer.
  [[nodiscard]] bool current(const LandmarkTable::Entry& e, Vertex v) const;
  /// The compactions' test for a listed vertex: the entry at (v, kid) if
  /// it is live at `now`. Otherwise nullptr, and the caller drops v from
  /// the kid index, so a held entry forgets that it was listed.
  LandmarkTable::Entry* keep_listed(Vertex v, std::uint64_t kid, Round now);

  TokenSoup& soup_;
  CommitteeManager& committees_;
  ProtocolConfig config_;
  std::uint32_t depth_ = 0;
  std::uint32_t ttl_ = 0;

  /// One table per shard, each written only by its shard's tasks.
  // shardcheck:cold-state(one table per shard, built at attach; each draws its blocks, index and lists from its shard's arena)
  std::vector<LandmarkTable> tables_;
  /// kid -> vertices that (may) hold a landmark for it, each at most once;
  /// validated lazily. Global map: only mutated from serial context (merge
  /// hooks).
  // shardcheck:cold-state(mutated only from the serial merge that applies staged index_add entries)
  std::unordered_map<std::uint64_t, std::vector<Vertex>> index_;
  /// One landmark entry to grow next round: (vertex, committee kid).
  struct GrowJob {
    Vertex v;
    std::uint64_t kid;
  };
  /// Per-shard staging, applied in ascending shard order at the merges;
  /// the vectors draw from the shard's arena and keep their capacity.
  struct alignas(64) ShardStage {
    explicit ShardStage(Arena* a)
        : grow_jobs(ArenaAllocator<GrowJob>(a)),
          index_add(ArenaAllocator<std::pair<std::uint64_t, Vertex>>(a)) {}
    /// Entries with pending growth, staged by dispatch and drained by the
    /// next round phase.
    std::vector<GrowJob, ArenaAllocator<GrowJob>> grow_jobs;
    std::vector<std::pair<std::uint64_t, Vertex>,
                ArenaAllocator<std::pair<std::uint64_t, Vertex>>>
        index_add;
    std::uint64_t created = 0;
    std::uint64_t collisions = 0;
  };
  // shardcheck:cold-state(outer vector sized to the shard count at attach; the staging vectors inside are arena-backed)
  std::vector<ShardStage> stage_;
};

}  // namespace churnstore
