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
  depth_ = landmark_tree_depth(net().n(), committees_.target_size());
  ttl_ = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(config_.landmark_ttl_taus *
                                    committees_.tau()));
  // A wave's lists are stored from its start round until its deepest level
  // (created up to depth_ rounds later) expires ttl_ rounds after that.
  const std::uint32_t shards = net().shards().count();
  tables_ = std::vector<LandmarkTable>(shards);
  stage_.clear();
  stage_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    tables_[s].attach(net().shard_arena(s), ttl_ + depth_ + 1);
    stage_.emplace_back(&net().shard_arena(s));
  }
  committees_.set_landmark_rebuild_hook(
      [this](const LandmarkRebuild& r) { start_tree(r); });
}

LandmarkTable::Entry* LandmarkManager::held(Vertex v,
                                            std::uint64_t kid) const {
  return tables_[net().shards().shard_of(v)].find(v, kid);
}

bool LandmarkManager::current(const LandmarkTable::Entry& e, Vertex v) const {
  return e.st.expiry - static_cast<Round>(ttl_) >= net().birth_round(v);
}

LandmarkTable::Entry* LandmarkManager::keep_listed(Vertex v, std::uint64_t kid,
                                                   Round now) {
  LandmarkTable::Entry* e = held(v, kid);
  if (e == nullptr) return nullptr;
  if (current(*e, v) && e->st.expiry >= now) return e;
  e->indexed = false;
  return nullptr;
}

const LandmarkState* LandmarkManager::state_at(Vertex v,
                                               std::uint64_t kid) const {
  const LandmarkTable::Entry* e = held(v, kid);
  return e != nullptr && current(*e, v) && e->st.expiry >= net().round()
             ? &e->st
             : nullptr;
}

std::size_t LandmarkManager::live_count(std::uint64_t kid) const {
  const auto it = index_.find(kid);
  if (it == index_.end()) return 0;
  std::size_t alive = 0;
  for (const Vertex v : it->second) alive += state_at(v, kid) != nullptr;
  return alive;
}

void LandmarkManager::grow_children(Vertex v, LandmarkState& st,
                                    ShardContext* ctx) {
  const PeerId self = net().peer_at(v);
  PeerList children;
  soup_.samples(v).recent_distinct(config_.tree_fanout, children,
                                   std::span(&self, 1));
  for (const PeerId child : children) {
    Message msg;
    msg.src = self;
    msg.dst = child;
    msg.type = MsgType::kLandmarkGrow;
    msg.words.reserve(7 + st.committee.size());
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

void LandmarkManager::start_tree(const LandmarkRebuild& r) {
  // The member acts as the tree root: it is not itself a landmark (it is
  // better — it holds the item), it just recruits the first level.
  LandmarkState root;
  root.kid = r.kid;
  root.item = r.item;
  root.purpose = r.purpose;
  root.search_root = r.search_root;
  root.committee = r.members;
  root.wave = static_cast<std::uint64_t>(net().round());
  root.pending_depth = depth_;
  grow_children(r.vertex, root, nullptr);
}

void LandmarkManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Grow one tree level: every (vertex, kid) entry recruited last round
  // with depth to spare recruits its children. The jobs were staged by
  // this shard's own dispatch task, in canonical message order.
  // Growing only sends, so the staged jobs are drained in place and the
  // vector keeps its capacity for the next dispatch.
  ShardStage& stage = stage_[shard];
  for (const GrowJob& job : stage.grow_jobs) {
    // An entry re-recruited by a later wave in the same round was staged
    // twice; the first job grows it and the second finds nothing pending.
    LandmarkTable::Entry* e = held(job.v, job.kid);
    if (e != nullptr && current(*e, job.v) && e->st.pending_depth > 0) {
      grow_children(job.v, e->st, &ctx);
    }
  }
  stage.grow_jobs.clear();

  // Periodic garbage collection of expired landmark state ("discards any
  // information about I" after the TTL, per Algorithm 2 step 4); this
  // shard's table only — the global index sweeps at the merge.
  const Round now = net().round();
  if (now % ttl_ == 0) tables_[shard].sweep(now);
}

void LandmarkManager::on_round_merge() {
  const Round now = net().round();
  if (now % ttl_ != 0) return;
  // shardcheck:ok(R2: serial merge sweep with order-independent per-entry compaction; no sends or charges depend on visit order)
  for (auto it = index_.begin(); it != index_.end();) {
    auto& verts = it->second;
    std::size_t write = 0;
    for (const Vertex v : verts) {
      if (keep_listed(v, it->first, now) != nullptr) verts[write++] = v;
    }
    verts.resize(write);
    it = verts.empty() ? index_.erase(it) : std::next(it);
  }
}

bool LandmarkManager::on_message(Vertex v, const Message& m,
                                 ShardContext& ctx) {
  if (m.type != MsgType::kLandmarkGrow) return false;
  ShardStage& stage = stage_[ctx.shard()];
  LandmarkTable& table = tables_[ctx.shard()];
  const std::uint64_t kid = m.words[0];
  const std::uint64_t wave = m.words[5];
  const Round now = net().round();
  LandmarkTable::Entry* e = table.find(v, kid);
  const bool present = e != nullptr && current(*e, v);
  if (present && e->st.wave == wave && e->st.expiry >= now) {
    // Already recruited into this wave's tree ("unused" check of the paper,
    // resolved at the child): the branch dies here.
    ++stage.collisions;
    return true;
  }
  // An entry of an earlier wave (even expired, until swept) or of an
  // earlier peer is overwritten in place; the latter counts as absent.
  if (e == nullptr) e = &table.add(v, kid);
  LandmarkState& st = e->st;
  st.item = m.words[1];
  st.purpose = static_cast<Purpose>(m.words[2]);
  st.search_root = m.words[3];
  const auto depth = static_cast<std::uint32_t>(m.words[4]);
  st.wave = wave;
  st.expiry = now + ttl_;
  st.pending_depth = depth > 1 ? depth - 1 : 0;
  const std::span<const PeerId> members(m.words.data() + kCommitteeAt,
                                        m.words[6]);
  st.committee = table.intern(kid, wave, members, now, st.expiry);
  if (st.pending_depth > 0) stage.grow_jobs.push_back(GrowJob{v, kid});
  // A vertex whose earlier peer's entry is still listed is not listed twice.
  if (!present && !e->indexed) {
    e->indexed = true;
    stage.index_add.emplace_back(kid, v);
  }
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
