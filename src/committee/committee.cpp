#include "committee/committee.h"

#include <algorithm>

#include "storage/item.h"

namespace churnstore {

namespace {

// kCommitteeInvite (creation) / kCommitteeConfirm word layout.
//   [0] kid  [1] purpose  [2] item  [3] search_root  [4] rank
//   [5] epoch_base  [6] expire+1 (0 = persistent)  [7] flags
//   [8] piece_index  [9] ida_k  [10] original_size
//   [11] member count m  [12 .. 12+m) member ids
// blob: item replica or IDA piece.
constexpr std::uint64_t kFlagCreation = 1;
constexpr std::size_t kMembersAt = 12;

// Leader redundancy R: the top-R ranked members all attempt re-formation,
// ordered by rank (the paper footnote's fallback, made explicit).
constexpr std::uint32_t kLeaderRedundancy = 2;

// kCommitteeCount: [0] kid [1] count [2] piece_index [3] ida_k
//                  [4] original_size; blob: IDA piece (erasure mode only).
// kCommitteeCandidateAlive / kCommitteeAccept / kCommitteeDissolve:
//   [0] kid [1] rank.

std::uint64_t encode_expire(Round expire) {
  return expire < 0 ? 0 : static_cast<std::uint64_t>(expire) + 1;
}

Round decode_expire(std::uint64_t w) {
  return w == 0 ? -1 : static_cast<Round>(w - 1);
}

/// The membership a creation kCommitteeInvite or a kCommitteeConfirm
/// carries (same word layout, see above).
// shardcheck:sharded-hook(called from on_message's invite and confirm handlers)
Membership decode_membership(const Message& m) {
  Membership mem;
  mem.kid = m.words[0];
  mem.purpose = static_cast<Purpose>(m.words[1]);
  mem.item = m.words[2];
  mem.search_root = m.words[3];
  mem.epoch_base = static_cast<Round>(m.words[5]);
  mem.expire = decode_expire(m.words[6]);
  mem.piece_index = static_cast<std::uint32_t>(m.words[8]);
  mem.ida_k = static_cast<std::uint32_t>(m.words[9]);
  mem.original_size = m.words[10];
  const std::uint64_t count = m.words[11];
  // shardcheck:ok(R6: membership decode from an invite/confirm message: O(committee size) per event)
  mem.members.assign(
      m.words.begin() + kMembersAt,
      m.words.begin() + kMembersAt + static_cast<std::ptrdiff_t>(count));
  // shardcheck:ok(R6: payload decode from an invite/confirm message: O(item bytes) per event)
  mem.payload.assign(m.blob().begin(), m.blob().end());
  return mem;
}

}  // namespace

CommitteeManager::CommitteeManager(TokenSoup& soup,
                                   const ProtocolConfig& config)
    : soup_(soup), config_(config), erasure_(config.ida_surplus) {}

void CommitteeManager::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  const std::uint32_t n = net().n();
  stream_salt_ = net().protocol_rng().fork(0x636f6dULL).next();
  tau_ = soup_.tau();
  period_ = std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(config_.refresh_taus * tau_));
  target_ = committee_target(n);
  state_.assign(n, {});
  pending_.assign(n, {});
  active_flag_.assign(n, 0);
  active_count_.assign(net().shards().count(), 0);
  stage_.assign(net().shards().count(), {});
}

void CommitteeManager::on_churn(Vertex v, PeerId, PeerId) {
  state_[v].clear();
  pending_[v].clear();
}

void CommitteeManager::expose_to_adaptive_adversary() {
  net().set_adaptive_targeter([this](AdaptiveTargetQuery& q) {
    for (const Vertex v : occupied_vertices(q.quota)) q.victims.push_back(v);
  });
}

void CommitteeManager::mark_active(Vertex v) {
  if (!active_flag_[v]) {
    active_flag_[v] = 1;
    ++active_count_[net().shards().shard_of(v)];
  }
}

const Membership* CommitteeManager::membership_at(Vertex v,
                                                  std::uint64_t kid) const {
  const auto it = state_[v].find(kid);
  return it == state_[v].end() ? nullptr : &it->second;
}

std::vector<Vertex> CommitteeManager::occupied_vertices(
    std::uint32_t max) const {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < net().n() && out.size() < max; ++v) {
    if (active_flag_[v] && !state_[v].empty()) out.push_back(v);
  }
  return out;
}

const CommitteeManager::Info* CommitteeManager::info(std::uint64_t kid) const {
  const auto it = registry_.find(kid);
  return it == registry_.end() ? nullptr : &it->second;
}

std::size_t CommitteeManager::alive_members(std::uint64_t kid) const {
  const Info* inf = info(kid);
  if (!inf) return 0;
  std::size_t alive = 0;
  for (const PeerId p : inf->last_members) alive += net().is_alive(p);
  return alive;
}

// shardcheck:sharded-hook(called from send_invites on the shard lanes; the serial create path obeys the same rules)
std::vector<PeerId> CommitteeManager::pick_sources(Vertex v, Round anchor,
                                                   std::uint32_t want,
                                                   // shardcheck:ok(R1: callers pass their own per-vertex vertex_rng, never a shared sequence)
                                                   Rng& rng) const {
  const PeerId self = net().peer_at(v);
  // shardcheck:ok(R6: committee formation draws O(want) sources per refresh event, not per token; control plane is outside the soup heap-quiet invariant)
  std::vector<PeerId> out;
  if (anchor >= 0) {
    // Paper: the leader uses the walks that stopped at it in the anchor
    // round; we dedupe sources and draw `want` of them.
    const SampleView anchor_samples = soup_.samples(v).at(anchor);
    // shardcheck:ok(R6: anchor-sample dedup pool: O(samples at the leader) per formation event)
    std::vector<PeerId> pool(anchor_samples.begin(), anchor_samples.end());
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::erase(pool, kNoPeer);
    rng.shuffle(pool);
    for (const PeerId p : pool) {
      if (out.size() >= want) break;
      out.push_back(p);
    }
  }
  if (out.size() < want) {
    PeerList extra;
    soup_.samples(v).recent_distinct(want, extra, out);
    for (const PeerId p : extra) {
      if (out.size() >= want) break;
      if (p != kNoPeer && p != self) out.push_back(p);
    }
  }
  return out;
}

bool CommitteeManager::create(Vertex creator, std::uint64_t kid,
                              Purpose purpose, ItemId item, PeerId search_root,
                              const std::vector<std::uint8_t>& payload,
                              Round expire) {
  const Round now = net().round();
  const auto want = static_cast<std::uint32_t>(
      std::max(1.0, config_.invite_oversample) * target_);
  Rng rng = vertex_rng(creator, kid);
  const std::vector<PeerId> members = pick_sources(creator, -1, want, rng);
  if (members.size() < 3) return false;

  const bool erasure =
      config_.use_erasure_coding && purpose == Purpose::kStorage;
  std::vector<IdaPiece> pieces;
  std::uint32_t ida_k = 0;
  if (erasure) {
    // K is fixed for the item's lifetime, sized from the *target* committee
    // (the steady-state survivor count), not the oversampled invite list.
    ida_k = erasure_.pieces_needed(target_);
    pieces = erasure_.encode(payload, ida_k,
                             static_cast<std::uint32_t>(members.size()));
  }

  Info& inf = registry_[kid];
  inf.item = item;
  inf.purpose = purpose;
  inf.search_root = search_root;
  inf.created = now;
  inf.last_members = members;
  inf.hash = content_hash(payload);

  for (std::size_t i = 0; i < members.size(); ++i) {
    Message msg;
    msg.src = net().peer_at(creator);
    msg.dst = members[i];
    msg.type = MsgType::kCommitteeInvite;
    msg.words.reserve(12 + members.size());
    msg.words = {kid,
                 static_cast<std::uint64_t>(purpose),
                 item,
                 search_root,
                 0 /*rank*/,
                 static_cast<std::uint64_t>(now),
                 encode_expire(expire),
                 kFlagCreation,
                 erasure ? static_cast<std::uint64_t>(pieces[i].index)
                         : kNoPiece,
                 ida_k,
                 payload.size()};
    msg.words.push_back(members.size());
    msg.words.insert(msg.words.end(), members.begin(), members.end());
    msg.set_blob(erasure ? pieces[i].bytes : payload);
    net().send(creator, std::move(msg));
  }
  net().metrics().count_committee_formed();
  return true;
}

// shardcheck:sharded-hook(runs on the shard lanes via run_cycle_phase)
void CommitteeManager::send_invites(Vertex v, Membership& m, Round now,
                                    Round anchor, ShardContext& ctx) {
  (void)now;
  const auto want = static_cast<std::uint32_t>(
      std::max(1.0, config_.invite_oversample) * target_);
  Rng rng = vertex_rng(v, m.kid);
  m.invited = pick_sources(v, anchor, want, rng);
  const PeerId self = net().peer_at(v);
  for (const PeerId p : m.invited) {
    Message msg;
    msg.src = self;
    msg.dst = p;
    msg.type = MsgType::kCommitteeInvite;
    msg.words = {m.kid,
                 static_cast<std::uint64_t>(m.purpose),
                 m.item,
                 m.search_root,
                 m.my_rank,
                 static_cast<std::uint64_t>(anchor),
                 encode_expire(m.expire),
                 0 /*flags: re-formation, no payload yet*/,
                 kNoPiece,
                 m.ida_k,
                 m.original_size,
                 0 /*no member list yet; final list comes with confirm*/};
    ctx.send(v, std::move(msg));
  }
  // Announce candidacy to the clique so outranked candidates stand down.
  for (const PeerId p : m.members) {
    if (p == self) continue;
    Message msg;
    msg.src = self;
    msg.dst = p;
    msg.type = MsgType::kCommitteeCandidateAlive;
    msg.words = {m.kid, m.my_rank};
    ctx.send(v, std::move(msg));
  }
  m.best_alive_rank = std::min(m.best_alive_rank, m.my_rank);
}

// shardcheck:sharded-hook(runs on the shard lanes via run_cycle_phase)
void CommitteeManager::confirm_committee(Vertex v, Membership& m, Round now,
                                         Round anchor, ShardContext& ctx,
                                         ShardStage& stage) {
  const bool erasure =
      config_.use_erasure_coding && m.purpose == Purpose::kStorage;
  // Erasure mode: the pieces that came with the count messages, then my
  // own, rebuild the item, which is re-encoded for the new members.
  std::optional<std::vector<std::uint8_t>> rebuilt;
  // shardcheck:ok(R6: erasure scratch on committee confirmation: O(committee) bytes per formation event)
  std::vector<IdaPiece> pieces;
  if (erasure) {
    if (m.piece_index != kNoPiece) {
      // shardcheck:ok(R6: own piece joins the gathered pieces: O(item bytes) per formation event)
      m.gathered_pieces.push_back(IdaPiece{m.piece_index, m.payload});
    }
    rebuilt = erasure_.reconstruct(m.gathered_pieces, m.ida_k,
                                   static_cast<std::size_t>(m.original_size));
    if (!rebuilt) {
      // Too many pieces lost to churn within one refresh period: the item
      // cannot be re-dispersed. The committee (and the item) dies here.
      ++stage.lost;
      return;
    }
    pieces = erasure_.encode(*rebuilt, m.ida_k,
                             static_cast<std::uint32_t>(m.accepted.size()));
  }
  const std::vector<std::uint8_t>& full_payload =
      rebuilt ? *rebuilt : m.payload;

  std::sort(m.accepted.begin(), m.accepted.end());
  m.accepted.erase(std::unique(m.accepted.begin(), m.accepted.end()),
                   m.accepted.end());
  const PeerId self = net().peer_at(v);
  for (std::size_t i = 0; i < m.accepted.size(); ++i) {
    Message msg;
    msg.src = self;
    msg.dst = m.accepted[i];
    msg.type = MsgType::kCommitteeConfirm;
    msg.words.reserve(12 + m.accepted.size());
    msg.words = {m.kid,
                 static_cast<std::uint64_t>(m.purpose),
                 m.item,
                 m.search_root,
                 m.my_rank,
                 static_cast<std::uint64_t>(anchor),
                 encode_expire(m.expire),
                 0,
                 erasure && i < pieces.size()
                     ? static_cast<std::uint64_t>(pieces[i].index)
                     : kNoPiece,
                 m.ida_k,
                 erasure ? m.original_size : full_payload.size()};
    msg.words.push_back(m.accepted.size());
    msg.words.insert(msg.words.end(), m.accepted.begin(), m.accepted.end());
    msg.set_blob((erasure && i < pieces.size()) ? pieces[i].bytes
                                                   : full_payload);
    ctx.send(v, std::move(msg));
  }

  // Tell the outgoing generation the handover succeeded so it can resign.
  for (const PeerId p : m.members) {
    if (p == self) continue;
    Message msg;
    msg.src = self;
    msg.dst = p;
    msg.type = MsgType::kCommitteeHandover;
    msg.words = {m.kid};
    ctx.send(v, std::move(msg));
  }
  m.handover_seen = true;

  // The god-view registry is global: stage the generation update for the
  // serial merge.
  // shardcheck:ok(R6: staged god-view registry update: O(committees confirming per cycle))
  stage.confirms.push_back(ShardStage::Confirm{m.kid, m.accepted});
  ++stage.formed;
  (void)now;
}

// shardcheck:sharded-hook(per-vertex phase driver called from the sharded on_round_begin lane)
void CommitteeManager::run_cycle_phase(Vertex v, Membership& m, Round now,
                                       std::uint64_t t_mod, Round anchor,
                                       ShardContext& ctx, ShardStage& stage) {
  const PeerId self = net().peer_at(v);
  const bool erasure =
      config_.use_erasure_coding && m.purpose == Purpose::kStorage;
  switch (t_mod) {
    case 1: {
      // Reset the cycle scratch and exchange walk counts (plus IDA pieces,
      // so a future leader can reconstruct the item).
      m.better = 0;
      m.gathered_pieces.clear();
      m.candidate = false;
      m.dissolved = false;
      m.handover_seen = false;
      m.invited.clear();
      m.accepted.clear();
      m.best_alive_rank = 0xffffffffu;
      m.my_count =
          static_cast<std::uint32_t>(soup_.samples(v).count_at(anchor));
      for (const PeerId p : m.members) {
        if (p == self) continue;
        Message msg;
        msg.src = self;
        msg.dst = p;
        msg.type = MsgType::kCommitteeCount;
        msg.words = {m.kid, m.my_count,
                     erasure ? static_cast<std::uint64_t>(m.piece_index)
                             : kNoPiece,
                     m.ida_k, m.original_size};
        if (erasure && m.piece_index != kNoPiece) msg.set_blob(m.payload);
        ctx.send(v, std::move(msg));
      }
      break;
    }
    case 2: {
      // Ranking is common knowledge: everyone received the same counts,
      // and the rank is the number of them that beat mine.
      if (m.better < kLeaderRedundancy) {
        m.candidate = true;
        m.my_rank = m.better;
        send_invites(v, m, now, anchor, ctx);
      }
      break;
    }
    case 3: {
      if (m.candidate && m.best_alive_rank < m.my_rank) {
        // A better-ranked candidate survived to issue invitations; stand
        // down and dissolve this formation.
        m.dissolved = true;
        for (const PeerId p : m.invited) {
          Message msg;
          msg.src = self;
          msg.dst = p;
          msg.type = MsgType::kCommitteeDissolve;
          msg.words = {m.kid, m.my_rank};
          ctx.send(v, std::move(msg));
        }
      }
      break;
    }
    case 4: {
      if (m.candidate && !m.dissolved && !m.accepted.empty()) {
        confirm_committee(v, m, now, anchor, ctx, stage);
      }
      break;
    }
    default:
      break;
  }
}

void CommitteeManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  if (active_count_[shard] == 0) return;
  const Round now = net().round();
  // Landmark trees are rebuilt once per tau (paper), at least 4 rounds apart.
  const std::uint32_t rebuild = std::max<std::uint32_t>(4, tau_);
  ShardStage& stage = stage_[shard];

  for (Vertex v = ctx.begin(); v < ctx.end(); ++v) {
    if (!active_flag_[v]) continue;
    auto& st = state_[v];
    auto& pn = pending_[v];

    // Invitee side: accept the best-ranked invitation received last round.
    // shardcheck:ok(R2: per-vertex map whose insertion history is fixed by the canonical dispatch order, so bucket order is the same for every shard count; pinned by the ShardedFullStack S-invariance tests)
    for (auto it = pn.begin(); it != pn.end();) {
      PendingJoin& pj = it->second;
      if (!pj.accept_sent && pj.received == now - 1) {
        Message msg;
        msg.src = net().peer_at(v);
        msg.dst = pj.candidate;
        msg.type = MsgType::kCommitteeAccept;
        msg.words = {pj.kid, pj.rank};
        ctx.send(v, std::move(msg));
        pj.accept_sent = true;
        ++it;
      } else if (pj.received < now - 3) {
        it = pn.erase(it);  // confirm never came; candidate died
      } else {
        ++it;
      }
    }

    // shardcheck:ok(R2: same as above — insertion history of state_[v] is S-invariant, so the emission order this loop produces is too)
    for (auto& [kid, m] : st) {
      if (m.expire >= 0 && now >= m.expire) {
        // shardcheck:ok(R6: staged membership erase: O(committees expiring or resigning per cycle))
        stage.erases.emplace_back(v, kid);
        continue;
      }
      // First landmark wave right after creation (members install at the end
      // of epoch_base + 1, so their first active round is t == 2), then one
      // wave per rebuild period aligned after each handover window. The
      // landmark layer is shared across shards, so the rebuild is staged
      // and handed over at the merge.
      const std::int64_t t = now - m.epoch_base;
      if (t == 2 || (t >= 6 && (t - 6) % rebuild == 0)) {
        // shardcheck:ok(R6: staged landmark rebuild: O(committees per rebuild wave))
        stage.rebuilds.push_back(LandmarkRebuild{
            v, kid, m.item, m.purpose, m.search_root, m.members});
      }
      if (t >= static_cast<std::int64_t>(period_)) {
        const std::uint64_t t_mod =
            static_cast<std::uint64_t>(t) % period_;
        if (t_mod == 5) {
          // Old generation resigns once a successor confirmed; if the
          // re-formation failed (all candidates churned mid-handover), the
          // members stay on and retry next cycle — the paper explicitly
          // permits postponing resignation. Confirmed successors have
          // epoch_base == anchor, so t == 5 < period_ leaves them alone.
          if (m.handover_seen) {
            // shardcheck:ok(R6: staged membership erase: O(committees expiring or resigning per cycle))
            stage.erases.emplace_back(v, kid);
          } else {
            ++stage.lost;  // failed re-formation
          }
          continue;
        }
        if (t_mod >= 1 && t_mod <= 4) {
          const Round anchor = now - static_cast<Round>(t_mod);
          run_cycle_phase(v, m, now, t_mod, anchor, ctx, stage);
        }
      }
    }
    if (st.empty() && pn.empty()) {
      active_flag_[v] = 0;
      --active_count_[shard];
    }
  }
}

void CommitteeManager::on_round_merge() {
  // Canonical order: ascending shard, staging order within a shard (which
  // is ascending vertex) — the same stream a serial run produces.
  for (std::uint32_t s = 0; s < stage_.size(); ++s) {
    ShardStage& stage = stage_[s];
    for (const ShardStage::Confirm& c : stage.confirms) {
      Info& inf = registry_[c.kid];
      inf.last_members.assign(c.members.begin(), c.members.end());
      ++inf.generations;
    }
    stage.confirms.clear();
    if (on_landmark_rebuild_) {
      for (const LandmarkRebuild& r : stage.rebuilds) on_landmark_rebuild_(r);
    }
    stage.rebuilds.clear();
    // The spans above are read; now the staged memberships can go.
    for (const auto& [v, kid] : stage.erases) {
      state_[v].erase(kid);
      if (active_flag_[v] && state_[v].empty() && pending_[v].empty()) {
        active_flag_[v] = 0;
        --active_count_[s];
      }
    }
    stage.erases.clear();
    net().metrics().count_committee_formed(stage.formed);
    net().metrics().count_committee_lost(stage.lost);
    stage.formed = stage.lost = 0;
  }
}

bool CommitteeManager::on_message(Vertex v, const Message& m,
                                  ShardContext& ctx) {
  (void)ctx;  // handlers only mutate v-owned state (+ shard-local flags)
  switch (m.type) {
    case MsgType::kCommitteeInvite: {
      const std::uint64_t kid = m.words[0];
      const auto flags = m.words[7];
      if (flags & kFlagCreation) {
        state_[v][kid] = decode_membership(m);
        mark_active(v);
      } else {
        auto& pj = pending_[v][kid];
        const auto rank = static_cast<std::uint32_t>(m.words[4]);
        if (pj.candidate == kNoPeer || rank < pj.rank) {
          pj.kid = kid;
          pj.rank = rank;
          pj.candidate = m.src;
          pj.purpose = static_cast<Purpose>(m.words[1]);
          pj.item = m.words[2];
          pj.search_root = m.words[3];
          pj.new_base = static_cast<Round>(m.words[5]);
          pj.expire = decode_expire(m.words[6]);
          pj.received = net().round();
          pj.accept_sent = false;
        }
        mark_active(v);
      }
      return true;
    }
    case MsgType::kCommitteeCount: {
      const auto it = state_[v].find(m.words[0]);
      if (it == state_[v].end()) return true;
      Membership& mem = it->second;
      // A sender ranks above me with a higher count, or an equal count and
      // a higher peer id.
      const auto count = static_cast<std::uint32_t>(m.words[1]);
      if (count > mem.my_count ||
          (count == mem.my_count && m.src > net().peer_at(v))) {
        ++mem.better;
      }
      const auto piece_index = static_cast<std::uint32_t>(m.words[2]);
      if (piece_index != kNoPiece) {
        // shardcheck:ok(R6: erasure piece gather: O(committee) per formation event)
        mem.gathered_pieces.push_back(IdaPiece{
            piece_index, {m.blob().begin(), m.blob().end()}});
      }
      return true;
    }
    case MsgType::kCommitteeHandover: {
      const auto it = state_[v].find(m.words[0]);
      if (it != state_[v].end()) it->second.handover_seen = true;
      return true;
    }
    case MsgType::kCommitteeCandidateAlive: {
      const auto it = state_[v].find(m.words[0]);
      if (it == state_[v].end()) return true;
      it->second.best_alive_rank =
          std::min(it->second.best_alive_rank,
                   static_cast<std::uint32_t>(m.words[1]));
      return true;
    }
    case MsgType::kCommitteeAccept: {
      const auto it = state_[v].find(m.words[0]);
      if (it == state_[v].end()) return true;
      Membership& mem = it->second;
      // shardcheck:ok(R6: accept votes: O(committee size) per formation event)
      if (mem.candidate && !mem.dissolved) mem.accepted.push_back(m.src);
      return true;
    }
    case MsgType::kCommitteeDissolve: {
      auto& pn = pending_[v];
      const auto it = pn.find(m.words[0]);
      if (it != pn.end() && it->second.candidate == m.src) pn.erase(it);
      return true;
    }
    case MsgType::kCommitteeConfirm: {
      const std::uint64_t kid = m.words[0];
      state_[v][kid] = decode_membership(m);
      pending_[v].erase(kid);
      mark_active(v);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace churnstore
