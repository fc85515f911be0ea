#include "landmark/landmark.h"

#include <algorithm>
#include <span>

namespace churnstore {

namespace {
// kLandmarkGrow word layout:
//   [0] kid [1] item [2] purpose [3] search_root [4] depth [5] wave
//   [6] committee count m  [7 .. 7+m) committee member ids
constexpr std::size_t kCommitteeAt = 7;
}  // namespace

LandmarkManager::LandmarkManager(TokenSoup& soup, CommitteeManager& committees,
                                 const ProtocolConfig& config)
    : soup_(soup), committees_(committees), config_(config) {}

void LandmarkManager::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  depth_ = landmark_tree_depth(net().n(), net().config().churn.k,
                               config_.delta, committees_.target_size());
  ttl_ = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(config_.landmark_ttl_taus *
                                    committees_.tau()));
  state_.assign(net().n(), {});
  stage_.assign(net().shards().count(), {});
  net().events().subscribe<LandmarkRebuildRequest>(
      [this](LandmarkRebuildRequest& req) {
        start_tree(req.vertex, req.kid, req.item, req.purpose,
                   req.search_root, *req.members);
      });
}

void LandmarkManager::on_churn(Vertex v, PeerId, PeerId) { state_[v].clear(); }

const LandmarkState* LandmarkManager::state_at(Vertex v,
                                               std::uint64_t kid) const {
  const auto it = state_[v].find(kid);
  if (it == state_[v].end()) return nullptr;
  if (it->second.expiry < net().round()) return nullptr;
  return &it->second;
}

std::size_t LandmarkManager::live_count(std::uint64_t kid) const {
  const auto it = index_.find(kid);
  if (it == index_.end()) return 0;
  const Round now = net().round();
  std::size_t alive = 0;
  for (const Vertex v : it->second) {
    const auto sit = state_[v].find(kid);
    if (sit != state_[v].end() && sit->second.expiry >= now) ++alive;
  }
  return alive;
}

void LandmarkManager::grow_children(Vertex v, LandmarkState& st,
                                    ShardContext* ctx) {
  const PeerId self = net().peer_at(v);
  const auto children = soup_.samples(v).recent_distinct(
      config_.tree_fanout, std::span(&self, 1));
  for (const PeerId child : children) {
    Message msg;
    msg.src = self;
    msg.dst = child;
    msg.type = MsgType::kLandmarkGrow;
    msg.words = {st.kid,
                 st.item,
                 static_cast<std::uint64_t>(st.purpose),
                 st.search_root,
                 st.pending_depth,
                 st.wave,
                 st.committee.size()};
    msg.words.insert(msg.words.end(), st.committee.begin(),
                     st.committee.end());
    if (ctx != nullptr) {
      ctx->send(v, std::move(msg));
    } else {
      net().send(v, std::move(msg));
    }
  }
  st.pending_depth = 0;
}

void LandmarkManager::start_tree(Vertex v, const Membership& m) {
  start_tree(v, m.kid, m.item, m.purpose, m.search_root, m.members);
}

void LandmarkManager::start_tree(Vertex v, std::uint64_t kid, ItemId item,
                                 Purpose purpose, PeerId search_root,
                                 const std::vector<PeerId>& members) {
  // The member acts as the tree root: it is not itself a landmark (it is
  // better — it holds the item), it just recruits the first level.
  LandmarkState root;
  root.kid = kid;
  root.item = item;
  root.purpose = purpose;
  root.search_root = search_root;
  root.committee = members;
  root.wave = static_cast<std::uint64_t>(net().round());
  root.pending_depth = depth_;
  grow_children(v, root, nullptr);
}

void LandmarkManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Grow one tree level: every (vertex, kid) entry recruited last round
  // with depth to spare recruits its children. The jobs were staged by
  // this shard's own dispatch task, in canonical message order.
  ShardStage& stage = stage_[shard];
  // shardcheck:ok(R6: level-grow queue swap-out: O(recruiting vertices per rebuild wave), landmark control plane outside the soup heap-quiet invariant)
  std::vector<GrowJob> jobs;
  jobs.swap(stage.grow_jobs);
  for (const GrowJob& job : jobs) {
    // An entry re-recruited by a later wave in the same round was staged
    // twice; the first job grows it and the second finds nothing pending.
    const auto it = state_[job.v].find(job.kid);
    if (it != state_[job.v].end() && it->second.pending_depth > 0) {
      grow_children(job.v, it->second, &ctx);
    }
  }

  // Periodic garbage collection of expired landmark state ("discards any
  // information about I" after the TTL, per Algorithm 2 step 4); this
  // shard's vertex slice only — the global index sweeps at the merge.
  const Round now = net().round();
  if (now % ttl_ == 0) {
    for (Vertex v = ctx.begin(); v < ctx.end(); ++v) {
      auto& st_map = state_[v];
      // shardcheck:ok(R2: TTL sweep — each element is erased or kept independently, so visit order cannot change the result)
      for (auto it = st_map.begin(); it != st_map.end();) {
        it = (it->second.expiry < now) ? st_map.erase(it) : std::next(it);
      }
    }
  }
}

void LandmarkManager::on_round_merge() {
  const Round now = net().round();
  if (now % ttl_ != 0) return;
  // shardcheck:ok(R2: serial merge sweep with order-independent per-entry compaction; no sends or charges depend on visit order)
  for (auto it = index_.begin(); it != index_.end();) {
    auto& verts = it->second;
    std::size_t write = 0;
    for (const Vertex v : verts) {
      if (state_[v].count(it->first)) verts[write++] = v;
    }
    verts.resize(write);
    it = verts.empty() ? index_.erase(it) : std::next(it);
  }
}

bool LandmarkManager::on_message(Vertex v, const Message& m,
                                 ShardContext& ctx) {
  if (m.type != MsgType::kLandmarkGrow) return false;
  ShardStage& stage = stage_[ctx.shard()];
  const std::uint64_t kid = m.words[0];
  const std::uint64_t wave = m.words[5];
  auto& st_map = state_[v];
  const auto it = st_map.find(kid);
  if (it != st_map.end() && it->second.wave == wave &&
      it->second.expiry >= net().round()) {
    // Already recruited into this wave's tree ("unused" check of the paper,
    // resolved at the child): the branch dies here.
    ++stage.collisions;
    return true;
  }
  LandmarkState st;
  st.kid = kid;
  st.item = m.words[1];
  st.purpose = static_cast<Purpose>(m.words[2]);
  st.search_root = m.words[3];
  const auto depth = static_cast<std::uint32_t>(m.words[4]);
  st.wave = wave;
  const std::uint64_t count = m.words[6];
  // shardcheck:ok(R6: committee list decode from a landmark-grow message: O(committee size) per rebuild event)
  st.committee.assign(
      m.words.begin() + kCommitteeAt,
      m.words.begin() + kCommitteeAt + static_cast<std::ptrdiff_t>(count));
  st.expiry = net().round() + ttl_;
  st.pending_depth = depth > 1 ? depth - 1 : 0;
  const bool was_absent = (it == st_map.end());
  const bool grows = st.pending_depth > 0;
  st_map[kid] = std::move(st);
  // shardcheck:ok(R6: staged growth jobs: O(recruited landmarks per rebuild wave))
  if (grows) stage.grow_jobs.push_back(GrowJob{v, kid});
  // shardcheck:ok(R6: staged index update: O(new landmarks per rebuild wave))
  if (was_absent) stage.index_add.emplace_back(kid, v);
  ++stage.created;
  return true;
}

void LandmarkManager::on_dispatch_merge() {
  // Ascending shard order + ascending vertex order within a shard's
  // dispatch = the index receives vertices in ascending global order, as a
  // serial dispatch would have inserted them.
  for (ShardStage& stage : stage_) {
    for (const auto& [kid, v] : stage.index_add) index_[kid].push_back(v);
    stage.index_add.clear();
    net().metrics().count_landmark_created(stage.created);
    net().metrics().count_landmark_collision(stage.collisions);
    stage.created = stage.collisions = 0;
  }
}

}  // namespace churnstore
