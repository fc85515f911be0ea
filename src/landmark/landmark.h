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
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "net/config.h"
#include "net/network.h"
#include "walk/token_soup.h"

namespace churnstore {

struct LandmarkState {
  std::uint64_t kid = 0;
  ItemId item = 0;
  Purpose purpose = Purpose::kStorage;
  PeerId search_root = kNoPeer;
  std::vector<PeerId> committee;  ///< the members this landmark points to
  Round expiry = 0;
  std::uint64_t wave = 0;          ///< rebuild wave id (creation round)
  std::uint32_t pending_depth = 0; ///< levels still to grow below this node
};

class LandmarkManager final : public Protocol {
 public:
  LandmarkManager(TokenSoup& soup, CommitteeManager& committees,
                  const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "landmark";
  }
  /// Subscribes to LandmarkRebuildRequest: committee members trigger tree
  /// (re)builds through the event bus, not a direct dependency.
  void on_attach(Network& net) override;
  /// Sharded round: each shard grows its own vertices' pending tree levels
  /// (per-shard grow queues, sends through ctx) and sweeps its slice of
  /// expired landmark state; the kid -> vertices index sweeps at the merge.
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  /// Routes kLandmarkGrow; touches only the receiving vertex's state plus
  /// per-shard staging (grow queue, index additions, counters).
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_dispatch_merge() override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// Start a new tree rooted at committee member `v` (also reachable by
  /// publishing LandmarkRebuildRequest). Serial context only.
  void start_tree(Vertex v, const Membership& m);
  void start_tree(Vertex v, std::uint64_t kid, ItemId item, Purpose purpose,
                  PeerId search_root, const std::vector<PeerId>& members);

  /// Landmark state at vertex v for committee kid (nullptr if none/expired).
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
      const auto sit = state_[v].find(kid);
      if (sit == state_[v].end() || sit->second.expiry < now) continue;
      fn(v, sit->second);
      verts[write++] = v;
    }
    verts.resize(write);
  }

  /// Number of currently live landmarks for committee kid (exact count).
  [[nodiscard]] std::size_t live_count(std::uint64_t kid) const;

  [[nodiscard]] std::uint32_t tree_depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint32_t ttl() const noexcept { return ttl_; }

 private:
  /// Sends through ctx when given (sharded round phase), else serially.
  void grow_children(Vertex v, LandmarkState& st, ShardContext* ctx);

  TokenSoup& soup_;
  CommitteeManager& committees_;
  ProtocolConfig config_;
  std::uint32_t depth_ = 0;
  std::uint32_t ttl_ = 0;

  // shardcheck:arena-backed(per-vertex landmark maps grow on rebuild-wave messages — O(wave events) global-heap nodes, landmark control plane outside the soup heap-quiet invariant)
  std::vector<std::unordered_map<std::uint64_t, LandmarkState>> state_;
  /// kid -> vertices that (may) hold a landmark for it; validated lazily.
  /// Global map: only mutated from serial context (merge hooks).
  // shardcheck:cold-state(mutated only from the serial merge that applies staged index_add entries)
  std::unordered_map<std::uint64_t, std::vector<Vertex>> index_;
  /// One landmark entry to grow next round: (vertex, committee kid).
  struct GrowJob {
    Vertex v;
    std::uint64_t kid;
  };
  /// Per-shard staging, applied in ascending shard order at the merges.
  struct ShardStage {
    std::vector<GrowJob> grow_jobs;  ///< entries with pending growth
    std::vector<std::pair<std::uint64_t, Vertex>> index_add;
    std::uint64_t created = 0;
    std::uint64_t collisions = 0;
  };
  // shardcheck:cold-state(outer vector sized to the shard count at attach; inner staging vectors carry reasoned R6 suppressions at their growth sites)
  std::vector<ShardStage> stage_;
};

}  // namespace churnstore
