#include "baseline/chord_net/chord_net.h"

#include <algorithm>
#include <cassert>

#include "storage/item.h"
#include "util/rng.h"

namespace churnstore {

namespace {

// Wire formats (words):
//   kChordLookup         [0] key  [1] token  [2] want_data  [3] origin_peer
//                        [4] ndead  [5..] ndead x dead peer
//                        (semi-recursive: each hop forwards the lookup to
//                        the next node — one ROUND per hop — and sends a
//                        progress ack to the origin so it can detect and
//                        route around dead hops precisely. The dead list
//                        travels WITH the lookup: a router with a stale
//                        finger would otherwise forward every retry into
//                        the same dead node until its own repair cycle
//                        catches up, livelocking the lookup.)
//   kChordLookupReply    [0] key  [1] token  [2] done  [3] count
//                        [4..] count x (peer, id) — done == 1: holder-first
//                        candidate list; done == 0, count == 1: progress ack
//                        naming the hop now carrying the lookup; done == 0,
//                        count == 0: can't-route nack (unjoined receiver)
//   kChordStabilize      (empty)
//   kChordStabilizeReply [0] has_pred  [1] pred_peer  [2] pred_id
//                        [3] count  [4..] count x (peer, id) successor list
//   kChordNotify         [0] sender's chord id
//   kChordFetch          [0] item  [1] token
//   kChordFetchReply     [0] item  [1] token  [2] found; blob = payload
//   kChordTransfer       [0] item  [1] primary  [2] ack token (0 = none);
//                        blob = payload
//   kChordStoreAck       [0] item  [1] ack token
constexpr std::uint64_t kJoinSalt = 0x63686a6eULL;   // "chjn"
constexpr std::uint64_t kIdSalt = 0x63686f72644944ULL;
constexpr Round kNever = -1;
// Rounds without a reply before a lookup hop is presumed dead.
constexpr std::uint32_t kLookupRetry = 3;
// Search deadline = kTimeoutMult * (ceil(log2 n) + 8) rounds (semi-recursive
// hops cost one round each).
constexpr std::uint32_t kTimeoutMult = 3;
// Successor-list length r; doubles as the replica set size.
constexpr std::uint32_t kSuccessors = 8;
// Rounds between stabilize/fix-fingers ticks per vertex (staggered).
constexpr std::uint32_t kStabilizePeriod = 2;
// Rounds between replica pushes per primary holder (staggered).
constexpr std::uint32_t kReplicatePeriod = 8;

}  // namespace

void ChordNetProtocol::LookupStats::accumulate(const LookupStats& o) noexcept {
  searches_ok += o.searches_ok;
  searches_failed += o.searches_failed;
  stores_ok += o.stores_ok;
  stores_failed += o.stores_failed;
  hop_messages += o.hop_messages;
  ok_hops_sum += o.ok_hops_sum;
  ok_hops_max = std::max(ok_hops_max, o.ok_hops_max);
  maintenance_messages += o.maintenance_messages;
  transfers += o.transfers;
  joins_completed += o.joins_completed;
  ok_hops.merge(o.ok_hops);
}

void ChordNetProtocol::LookupStats::reset() noexcept {
  searches_ok = 0;
  searches_failed = 0;
  stores_ok = 0;
  stores_failed = 0;
  hop_messages = 0;
  ok_hops_sum = 0;
  ok_hops_max = 0;
  maintenance_messages = 0;
  transfers = 0;
  joins_completed = 0;
  ok_hops.clear();
}

ChordNetProtocol::ChordNetProtocol(Options options)
    : options_(options),
      stabilize_(kStabilizePeriod),
      replicate_(kReplicatePeriod) {}

ChordNetProtocol::ChordId ChordNetProtocol::chord_id(PeerId p) noexcept {
  return mix64(p ^ kIdSalt);
}

bool ChordNetProtocol::in_oc(ChordId a, ChordId x, ChordId b) noexcept {
  const std::uint64_t dx = x - a;
  const std::uint64_t db = b - a;
  if (db == 0) return dx != 0;  // (a, a] = full ring
  return dx != 0 && dx <= db;
}

bool ChordNetProtocol::in_oo(ChordId a, ChordId x, ChordId b) noexcept {
  const std::uint64_t dx = x - a;
  const std::uint64_t db = b - a;
  if (db == 0) return dx != 0;  // (a, a) = full ring minus a
  return dx != 0 && dx < db;
}

ChordNetProtocol::ChordId ChordNetProtocol::finger_target(
    ChordId id, std::uint32_t k) const noexcept {
  // Finger k covers distance 2^(63-k): half the ring, then quarter, ...
  // down to ~2^64 / 8n, below the expected node spacing.
  return id + (std::uint64_t{1} << (63 - k));
}

void ChordNetProtocol::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  const std::uint32_t n = net().n();
  nodes_.assign(n, {});
  keys_.assign(n, {});
  lookups_.assign(n, {});
  shard_stats_.assign(net().shards().count(), {});
  seed_ = net().config().seed;

  std::uint32_t log2n = 0;
  while ((std::uint32_t{1} << log2n) < n) ++log2n;
  finger_count_ = std::min<std::uint32_t>(64, log2n + 3);
  // Semi-recursive hops cost one round each; the slack covers a re-join of
  // the initiator plus a few dead-hop retries.
  deadline_rounds_ = kTimeoutMult * (log2n + 8);
  init_ring();
}

void ChordNetProtocol::init_ring() {
  // The experiment starts from a converged ring (ids sorted, successor
  // lists, predecessors and fingers exact) — the steady state a long-lived
  // deployment would be in. Churn then degrades it; maintenance repairs it.
  const std::uint32_t n = net().n();
  std::vector<std::pair<ChordId, Vertex>> ring;
  ring.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    nodes_[v].id = chord_id(net().peer_at(v));
    ring.emplace_back(nodes_[v].id, v);
  }
  std::sort(ring.begin(), ring.end());

  const std::uint32_t r =
      std::min<std::uint32_t>(kSuccessors, n > 1 ? n - 1 : 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeState& s = nodes_[ring[i].second];
    s.joined = true;
    s.stab_sent = kNever;
    const auto& prev = ring[(i + n - 1) % n];
    s.pred = net().peer_at(prev.second);
    s.pred_id = prev.first;
    s.pred_seen = 0;
    s.succ.clear();
    for (std::uint32_t j = 1; j <= r && n > 1; ++j) {
      const auto& nx = ring[(i + j) % n];
      s.succ.push_back(Entry{net().peer_at(nx.second), nx.first});
    }
    s.finger.assign(finger_count_, Entry{});
    for (std::uint32_t k = 0; k < finger_count_; ++k) {
      const ChordId target = finger_target(s.id, k);
      // Successor of `target` in the sorted ring (wrapping past the top).
      auto it = std::lower_bound(
          ring.begin(), ring.end(), std::make_pair(target, Vertex{0}),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it == ring.end()) it = ring.begin();
      s.finger[k] = Entry{net().peer_at(it->second), it->first};
    }
  }
}

void ChordNetProtocol::on_churn(Vertex v, PeerId, PeerId new_peer) {
  // The fresh peer knows nothing: it must bootstrap off a graph neighbor
  // and re-join the ring. In-flight searches it initiated are censored.
  for (const Lookup& lk : lookups_[v]) {
    if (lk.kind != Lookup::Kind::kSearch) continue;
    const auto it = records_.find(lk.sid);
    if (it == records_.end() || it->second.out.done) continue;
    it->second.out.done = true;
    it->second.out.censored = true;
  }
  lookups_[v].clear();
  keys_[v].clear();
  NodeState& s = nodes_[v];
  s = NodeState{};
  s.id = chord_id(new_peer);
  s.stab_sent = kNever;
}

bool ChordNetProtocol::contains_peer(const std::vector<PeerId>& list,
                                     PeerId p) noexcept {
  return std::find(list.begin(), list.end(), p) != list.end();
}

ChordNetProtocol::Entry ChordNetProtocol::closest_preceding(
    const NodeState& s, ChordId key, const std::vector<PeerId>& dead) const {
  Entry best{};
  std::uint64_t best_d = 0;
  const std::uint64_t dk = key - s.id;
  const auto consider = [&](const Entry& e) {
    if (e.peer == kNoPeer || contains_peer(dead, e.peer)) return;
    const std::uint64_t d = e.id - s.id;
    if (d == 0) return;
    if ((dk == 0 || d < dk) && d > best_d) {
      best = e;
      best_d = d;
    }
  };
  for (const Entry& e : s.finger) consider(e);
  for (const Entry& e : s.succ) consider(e);
  return best;
}

void ChordNetProtocol::adopt_successors(NodeState& s, const Entry& head,
                                        const std::vector<Entry>& rest,
                                        PeerId self) {
  s.succ.clear();
  const auto push = [&](const Entry& e) {
    if (e.peer == kNoPeer || e.peer == self) return;
    if (s.succ.size() >= kSuccessors) return;
    for (const Entry& have : s.succ) {
      if (have.peer == e.peer) return;
    }
    s.succ.push_back(e);
  };
  push(head);
  for (const Entry& e : rest) push(e);
}

void ChordNetProtocol::learn_entry(NodeState& s, const Entry& e) {
  if (e.peer == kNoPeer || e.id == s.id) return;
  for (std::uint32_t k = 0; k < s.finger.size(); ++k) {
    const ChordId target = finger_target(s.id, k);
    const std::uint64_t d_e = e.id - target;
    if (d_e >= s.id - target) continue;  // not in [target, self)
    Entry& f = s.finger[k];
    if (f.peer == kNoPeer || d_e < f.id - target) f = e;
  }
}

void ChordNetProtocol::forget_peer(NodeState& s, PeerId p) {
  for (Entry& f : s.finger) {
    if (f.peer == p) f = Entry{};
  }
  for (std::size_t i = 0; i < s.succ.size();) {
    if (s.succ[i].peer == p) {
      s.succ.erase(s.succ.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

// --- public API -------------------------------------------------------------

bool ChordNetProtocol::put(Vertex creator, ItemId item,
                           std::vector<std::uint8_t> payload) {
  if (items_.count(item)) return false;
  items_[item] = ItemInfo{content_hash(payload), payload.size()};
  Lookup lk;
  lk.kind = Lookup::Kind::kStore;
  lk.key = item;
  lk.token = nodes_[creator].next_token++;
  lk.deadline = net().round() + deadline_rounds_;
  lk.payload = std::move(payload);
  // Stores draw a trace id from the same sid counter as searches whether or
  // not a collector is installed, so the sid sequence (and with it every
  // downstream draw) is identical in traced and untraced runs.
  const std::uint64_t tid = mix64(next_sid_++ ^ 0x63737472ULL) | 1;  // "cstr"
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(tid)) {
    lk.trace = tid;
    lk.started = net().round();
    tc->record(make_trace_event(tid, lk.started, creator, 0, 0,
                                RequestClass::kChordStore, TraceEv::kBegin));
  }
  lookups_[creator].push_back(std::move(lk));
  return true;
}

const ChordNetProtocol::SearchRec* ChordNetProtocol::record(
    std::uint64_t sid) const {
  const auto it = records_.find(sid);
  return it == records_.end() ? nullptr : &it->second;
}

bool ChordNetProtocol::try_store(Vertex creator, ItemId item) {
  // "Not ready" while the creator is still rejoining the ring — the
  // store-search driver retries from another creator next round.
  if (!nodes_[creator].joined) return false;
  return put(creator, item, make_payload(item, options_.item_bits));
}

std::uint64_t ChordNetProtocol::begin_search(Vertex initiator, ItemId item) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x63686f7264ULL) | 1;
  TraceCollector* tc = net().trace_collector();
  const bool traced = tc != nullptr && tc->sampled(sid);
  if (traced) {
    tc->record(make_trace_event(sid, net().round(), initiator, 0, 0,
                                RequestClass::kChordSearch, TraceEv::kBegin));
  }
  SearchRec& rec = records_[sid];
  rec.item = item;
  // Local hit: the initiator already holds a verified replica.
  const auto it = keys_[initiator].find(item);
  if (it != keys_[initiator].end() &&
      verify_payload(item, it->second.bytes.data(), it->second.bytes.size())) {
    rec.out.done = rec.out.located = rec.out.fetched = true;
    rec.out.located_round = rec.out.fetched_round = net().round();
    rec.value = it->second.bytes;
    ++totals_.searches_ok;  // serial context: totals mutated directly
    totals_.ok_hops.add(0.0);
    if (traced) {
      tc->record(make_trace_event(sid, net().round(), initiator, 0, 0,
                                  RequestClass::kChordSearch, TraceEv::kEndOk));
    }
    return sid;
  }
  Lookup lk;
  lk.kind = Lookup::Kind::kSearch;
  lk.key = item;
  lk.sid = sid;
  lk.token = nodes_[initiator].next_token++;
  lk.deadline = net().round() + deadline_rounds_;
  if (traced) {
    lk.trace = sid;
    lk.started = net().round();
  }
  lookups_[initiator].push_back(std::move(lk));
  return sid;
}

WorkloadOutcome ChordNetProtocol::search_outcome(std::uint64_t sid) const {
  const SearchRec* rec = record(sid);
  return rec ? rec->out : WorkloadOutcome{};
}

std::size_t ChordNetProtocol::copies_alive(ItemId item) const {
  std::size_t acc = 0;
  for (const auto& held : keys_) acc += held.count(item);
  return acc;
}

double ChordNetProtocol::ring_consistency() const {
  std::vector<std::pair<ChordId, Vertex>> ring;
  for (Vertex v = 0; v < net().n(); ++v) {
    if (nodes_[v].joined) ring.emplace_back(nodes_[v].id, v);
  }
  if (ring.size() < 2) return 1.0;
  std::sort(ring.begin(), ring.end());
  std::size_t good = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeState& s = nodes_[ring[i].second];
    const Vertex true_succ = ring[(i + 1) % ring.size()].second;
    if (!s.succ.empty() && s.succ[0].peer == net().peer_at(true_succ)) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(ring.size());
}

std::size_t ChordNetProtocol::joined_count() const {
  std::size_t acc = 0;
  for (const NodeState& s : nodes_) acc += s.joined;
  return acc;
}

bool ChordNetProtocol::verify_payload(ItemId item, const std::uint8_t* data,
                                      std::size_t len) const {
  const auto it = items_.find(item);
  return it != items_.end() && it->second.bytes == len &&
         it->second.hash == content_hash(data, len);
}

// --- round work -------------------------------------------------------------

void ChordNetProtocol::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  const Round now = net().round();
  LookupStats& st = shard_stats_[shard];
  for (Vertex v = ctx.begin(); v < ctx.end(); ++v) {
    NodeState& s = nodes_[v];
    if (!s.joined) {
      maintain_join(v, s, now);
    } else {
      if (stabilize_.due(v, now)) tick_stabilize(v, s, now, ctx, st);
      if (replicate_.due(v, now)) tick_replicate(v, s, now, ctx, st);
    }
    advance_lookups(v, now, ctx, st);
  }
}

void ChordNetProtocol::on_round_merge() {
  for (LookupStats& st : shard_stats_) {
    totals_.accumulate(st);
    st.reset();  // in place: the histogram member must not reallocate
  }
}

void ChordNetProtocol::on_dispatch_merge() { on_round_merge(); }

void ChordNetProtocol::maintain_join(Vertex v, NodeState& s, Round now) {
  for (const Lookup& lk : lookups_[v]) {
    if (lk.kind == Lookup::Kind::kJoin) return;  // join already in flight
  }
  Lookup lk;
  lk.kind = Lookup::Kind::kJoin;
  lk.key = s.id;
  lk.token = s.next_token++;
  lk.deadline = now + deadline_rounds_;
  lookups_[v].push_back(std::move(lk));
}

// shardcheck:sharded-hook(called from the sharded on_round_begin lane)
void ChordNetProtocol::tick_stabilize(Vertex v, NodeState& s, Round now,
                                      ShardContext& ctx, LookupStats& st) {
  // check_predecessor, without a ping: a live predecessor re-notifies every
  // stabilize tick, so a pred that has been silent for two periods is
  // presumed dead. Dropping it lets the next notify install the true
  // predecessor — without this, stale preds block ring repair forever and
  // stabilize replies would keep advertising dead nodes as successors.
  if (s.pred != kNoPeer &&
      now - s.pred_seen >
          static_cast<Round>(2 * stabilize_.period() + 2)) {
    s.pred = kNoPeer;
  }
  // No reply since the last request (the reply lands one round after the
  // request): the peer we ASKED is presumed dead; purge it from the
  // successor list and fingers. Forgetting whatever sits at succ[0] *now*
  // would evict a live successor when a lookup timeout already removed the
  // silent one in between.
  if (s.stab_sent != kNever && now - s.stab_sent >= 2) {
    forget_peer(s, s.stab_target);
    if (s.succ.empty()) {
      // Ring contact lost entirely: behave like a fresh node and re-join.
      s.joined = false;
      s.pred = kNoPeer;
      s.stab_sent = kNever;
      return;
    }
  }
  if (s.succ.empty()) return;
  // Rotate one finger per tick through an iterative lookup.
  if (finger_count_ > 0) {
    const std::uint32_t k = s.next_finger;
    s.next_finger = (s.next_finger + 1) % finger_count_;
    bool active = false;
    for (const Lookup& lk : lookups_[v]) {
      if (lk.kind == Lookup::Kind::kFinger) {
        active = true;
        break;
      }
    }
    if (!active) {
      Lookup lk;
      lk.kind = Lookup::Kind::kFinger;
      lk.key = finger_target(s.id, k);
      lk.finger_idx = static_cast<std::uint8_t>(k);
      lk.token = s.next_token++;
      lk.deadline = now + deadline_rounds_;
      lookups_[v].push_back(std::move(lk));
    }
  }
  Message m;
  m.src = net().peer_at(v);
  m.dst = s.succ[0].peer;
  m.type = MsgType::kChordStabilize;
  s.stab_target = m.dst;
  ctx.send(v, std::move(m));
  s.stab_sent = now;
  ++st.maintenance_messages;
}

// shardcheck:sharded-hook(called from the sharded on_round_begin lane)
void ChordNetProtocol::tick_replicate(Vertex v, NodeState& s, Round now,
                                      ShardContext& ctx, LookupStats& st) {
  if (s.pred == kNoPeer || s.succ.empty()) return;
  // The lease must outlast the worst-case primary takeover (pred-silence
  // detection + successor promotion + notify + push), or a transient
  // repair stall erases every copy of an otherwise healthy item.
  const auto lease =
      static_cast<Round>(4 * replicate_.period() + 8);
  auto& held = keys_[v];
  for (auto it = held.begin(); it != held.end();) {
    const ItemId item = it->first;
    Replica& rep = it->second;
    if (in_oc(s.pred_id, item, s.id)) {
      // Primary for exactly the keys in (pred, self]: push to the replica
      // set and renew the local lease.
      rep.refreshed = now;
      for (const Entry& e : s.succ) {
        send_transfer(v, e.peer, item, rep.bytes, /*primary=*/false, ctx, st);
      }
      ++it;
    } else if (now - rep.refreshed > lease) {
      // Replica the primary stopped refreshing: we left the key's successor
      // set (or the copy migrated on); drop it.
      it = held.erase(it);
    } else {
      ++it;
    }
  }
}

// shardcheck:sharded-hook(called from the sharded on_round_begin lane)
void ChordNetProtocol::advance_lookups(Vertex v, Round now, ShardContext& ctx,
                                       LookupStats& st) {
  auto& list = lookups_[v];
  std::size_t write = 0;
  for (std::size_t read = 0; read < list.size(); ++read) {
    Lookup& lk = list[read];
    bool finished = false;
    if (now > lk.deadline) {
      if (lk.kind == Lookup::Kind::kSearch) {
        finish_search_failure(v, lk, now, ctx, st);
      }
      if (lk.kind == Lookup::Kind::kStore) {
        ++st.stores_failed;
        if (lk.trace != 0) {
          ctx.trace(make_trace_event(lk.trace, now, v, now - lk.started,
                                     lk.hops, RequestClass::kChordStore,
                                     TraceEv::kEndFail));
        }
      }
      finished = true;
    } else if (lk.storing) {
      if (now - lk.sent >= static_cast<Round>(2 * kLookupRetry)) {
        // No candidate acked the placement: the resolved successor set was
        // stale or died; re-resolve the key from scratch.
        lk.storing = false;
        lk.candidates.clear();
        finished = issue_hop(v, lk, now, ctx, st);
      }
    } else if (lk.hop == kNoPeer) {
      finished = lk.fetching ? advance_fetch(v, lk, now, ctx, st)
                             : issue_hop(v, lk, now, ctx, st);
    } else if (now - lk.sent >= static_cast<Round>(kLookupRetry)) {
      // The outstanding hop never answered: presume it churned out, route
      // around it (and drop it from our own tables).
      // shardcheck:ok(R6: dead-hop list grows one entry per unanswered lookup retry — O(routing timeouts), chord routing control plane with no heap-quiet claim)
      lk.dead.push_back(lk.hop);
      forget_peer(nodes_[v], lk.hop);
      lk.hop = kNoPeer;
      if (lk.fetching) {
        ++lk.fetch_idx;
        finished = advance_fetch(v, lk, now, ctx, st);
      } else {
        finished = issue_hop(v, lk, now, ctx, st);
      }
    }
    if (!finished) {
      if (write != read) list[write] = std::move(list[read]);
      ++write;
    }
  }
  list.resize(write);
}

Message ChordNetProtocol::make_lookup(PeerId src, PeerId dst,
                                      const Lookup& lk) const {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = MsgType::kChordLookup;
  m.words.push_back(lk.key);
  m.words.push_back(lk.token);
  m.words.push_back(lk.kind == Lookup::Kind::kSearch ? std::uint64_t{1} : 0);
  m.words.push_back(src);
  // Ship the (most recent) dead hops with the lookup so every router
  // excludes them; cap the tail so the message stays small.
  const std::size_t cap = 8;
  const std::size_t n = std::min(lk.dead.size(), cap);
  m.words.push_back(n);
  for (std::size_t i = lk.dead.size() - n; i < lk.dead.size(); ++i) {
    m.words.push_back(lk.dead[i]);
  }
  m.set_trace_id(lk.trace);  // 0 (untraced) costs nothing; see Message::size_bits
  return m;
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
bool ChordNetProtocol::issue_hop(Vertex v, Lookup& lk, Round now,
                                 ShardContext& ctx, LookupStats& st) {
  NodeState& s = nodes_[v];
  const PeerId self = net().peer_at(v);

  if (lk.kind == Lookup::Kind::kJoin) {
    // Bootstrap: ask a random graph neighbor (the model's "nodes know their
    // current neighbors") to resolve our own id.
    const RegularGraph& g = net().graph();
    if (g.degree() == 0) return false;
    Rng pick = stream_rng(mix64(seed_ ^ kJoinSalt) ^
                              static_cast<std::uint64_t>(now),
                          v);
    PeerId boot = kNoPeer;
    for (std::uint32_t attempt = 0; attempt < g.degree(); ++attempt) {
      const Vertex nb = g.neighbor(v, static_cast<std::uint32_t>(
                                          pick.next_below(g.degree())));
      const PeerId p = net().peer_at(nb);
      if (p != self && !contains_peer(lk.dead, p)) {
        boot = p;
        break;
      }
    }
    if (boot == kNoPeer) return false;  // all neighbors dead-listed; wait
    ctx.send(v, make_lookup(self, boot, lk));
    lk.hop = boot;
    lk.sent = now;
    ++lk.hops;
    ++st.hop_messages;
    return false;
  }

  if (!s.joined || s.succ.empty()) {
    // Cannot route right now; keep the lookup, a later round retries (the
    // deadline bounds how long).
    lk.sent = now;
    return false;
  }
  // Terminal checks against our own state first.
  if (s.pred != kNoPeer && in_oc(s.pred_id, lk.key, s.id)) {
    // shardcheck:ok(R6: candidate scratch for one terminal lookup resolution, O(successor-list) entries — chord control plane)
    std::vector<Entry> cands;
    cands.push_back(Entry{self, s.id});
    cands.insert(cands.end(), s.succ.begin(), s.succ.end());
    return complete_resolution(v, lk, std::move(cands), now, ctx, st);
  }
  if (in_oc(s.id, lk.key, s.succ[0].id)) {
    return complete_resolution(v, lk, s.succ, now, ctx, st);
  }
  Entry next = closest_preceding(s, lk.key, lk.dead);
  if (next.peer == kNoPeer) {
    if (!contains_peer(lk.dead, s.succ[0].peer)) {
      next = s.succ[0];
    } else {
      lk.sent = now;  // nothing routable; retry after the next repair
      return false;
    }
  }
  ctx.send(v, make_lookup(self, next.peer, lk));
  lk.hop = next.peer;
  lk.sent = now;
  ++lk.hops;
  ++st.hop_messages;
  if (lk.trace != 0) {
    ctx.trace(make_trace_event(lk.trace, now, v, kHopIssue, lk.hops,
                               lk.kind == Lookup::Kind::kStore
                                   ? RequestClass::kChordStore
                                   : RequestClass::kChordSearch,
                               TraceEv::kHop));
  }
  return false;
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
bool ChordNetProtocol::complete_resolution(Vertex v, Lookup& lk,
                                           std::vector<Entry> candidates,
                                           Round now, ShardContext& ctx,
                                           LookupStats& st) {
  NodeState& s = nodes_[v];
  const PeerId self = net().peer_at(v);
  switch (lk.kind) {
    case Lookup::Kind::kJoin: {
      Entry head{};
      // shardcheck:ok(R6: successor-candidate scratch built once per completed join, O(successor-list) entries)
      std::vector<Entry> rest;
      for (const Entry& e : candidates) {
        if (e.peer == kNoPeer || e.peer == self) continue;
        if (head.peer == kNoPeer) {
          head = e;
        } else {
          rest.push_back(e);
        }
      }
      if (head.peer == kNoPeer) return true;  // degenerate; re-join later
      adopt_successors(s, head, rest, self);
      s.joined = true;
      s.pred = kNoPeer;
      s.stab_sent = kNever;
      // shardcheck:ok(R6: finger table rebuilt once per completed join, O(log n) entries)
      s.finger.assign(finger_count_, Entry{});
      s.next_finger = 0;
      send_notify(v, s, ctx, st);
      ++st.joins_completed;
      return true;
    }
    case Lookup::Kind::kFinger: {
      if (!candidates.empty() && candidates[0].peer != kNoPeer &&
          lk.finger_idx < s.finger.size()) {
        s.finger[lk.finger_idx] = candidates[0];
      }
      return true;
    }
    case Lookup::Kind::kStore: {
      // Place the payload at the key's successor set: the primary re-pushes
      // to its own successor list, the rest receive plain replicas. Every
      // transfer carries the lookup token, so any candidate that stores a
      // copy acks the placement; until an ack lands the lookup stays alive
      // and re-resolves (the whole chain may have died under churn).
      const std::uint32_t copies = std::min<std::uint32_t>(
          kSuccessors, static_cast<std::uint32_t>(candidates.size()));
      bool local = false;
      for (std::uint32_t i = 0; i < copies; ++i) {
        const Entry& e = candidates[i];
        if (e.peer == kNoPeer) continue;
        if (e.peer == self) {
          keys_[v][lk.key] = Replica{lk.payload, now};
          local = true;
          continue;
        }
        send_transfer(v, e.peer, lk.key, lk.payload, /*primary=*/i == 0, ctx,
                      st, lk.token);
      }
      if (local) {
        ++st.stores_ok;  // a copy exists at the creator's own slot
        if (lk.trace != 0) {
          ctx.trace(make_trace_event(lk.trace, now, v, now - lk.started,
                                     lk.hops, RequestClass::kChordStore,
                                     TraceEv::kEndOk));
        }
        return true;
      }
      lk.storing = true;
      lk.hop = kNoPeer;
      lk.sent = now;
      return false;
    }
    case Lookup::Kind::kSearch: {
      lk.candidates = std::move(candidates);
      lk.fetching = true;
      lk.fetch_idx = 0;
      lk.hop = kNoPeer;
      return advance_fetch(v, lk, now, ctx, st);
    }
  }
  return true;
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
bool ChordNetProtocol::advance_fetch(Vertex v, Lookup& lk, Round now,
                                     ShardContext& ctx, LookupStats& st) {
  const PeerId self = net().peer_at(v);
  while (lk.fetch_idx < lk.candidates.size()) {
    const Entry& c = lk.candidates[lk.fetch_idx];
    if (c.peer == kNoPeer || contains_peer(lk.dead, c.peer)) {
      ++lk.fetch_idx;
      continue;
    }
    if (c.peer == self) {
      const auto it = keys_[v].find(lk.key);
      if (it != keys_[v].end() &&
          verify_payload(lk.key, it->second.bytes.data(),
                         it->second.bytes.size())) {
        finish_search_success(v, lk, now, it->second.bytes.data(),
                              it->second.bytes.size(), ctx, st);
        return true;
      }
      ++lk.fetch_idx;
      continue;
    }
    Message m;
    m.src = self;
    m.dst = c.peer;
    m.type = MsgType::kChordFetch;
    m.words = {lk.key, lk.token};
    m.set_trace_id(lk.trace);
    ctx.send(v, std::move(m));
    lk.hop = c.peer;
    lk.sent = now;
    if (lk.trace != 0) {
      ctx.trace(make_trace_event(lk.trace, now, v, kHopFetch, lk.fetch_idx,
                                 RequestClass::kChordSearch, TraceEv::kHop));
    }
    return false;
  }
  finish_search_failure(v, lk, now, ctx, st);
  return true;
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
void ChordNetProtocol::finish_search_success(Vertex v, const Lookup& lk,
                                             Round now,
                                             const std::uint8_t* data,
                                             std::size_t len,
                                             ShardContext& ctx,
                                             LookupStats& st) {
  const auto it = records_.find(lk.sid);
  if (it != records_.end() && !it->second.out.done) {
    WorkloadOutcome& out = it->second.out;
    out.done = out.located = out.fetched = true;
    out.located_round = out.fetched_round = now;
    // shardcheck:ok(R6: retrieved payload copied once per completed search, O(item bytes))
    it->second.value.assign(data, data + len);
  }
  ++st.searches_ok;
  st.ok_hops_sum += lk.hops;
  st.ok_hops_max = std::max<std::uint64_t>(st.ok_hops_max, lk.hops);
  st.ok_hops.add(static_cast<double>(lk.hops));
  if (lk.trace != 0) {
    ctx.trace(make_trace_event(lk.trace, now, v, now - lk.started, lk.hops,
                               RequestClass::kChordSearch, TraceEv::kEndOk));
  }
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
void ChordNetProtocol::finish_search_failure(Vertex v, const Lookup& lk,
                                             Round now, ShardContext& ctx,
                                             LookupStats& st) {
  const auto it = records_.find(lk.sid);
  if (it != records_.end() && !it->second.out.done) {
    it->second.out.done = true;
  }
  ++st.searches_failed;
  if (lk.trace != 0) {
    ctx.trace(make_trace_event(lk.trace, now, v, now - lk.started, lk.hops,
                               RequestClass::kChordSearch, TraceEv::kEndFail));
  }
}

// shardcheck:sharded-hook(called from the sharded on_round_begin lane)
void ChordNetProtocol::send_notify(Vertex v, const NodeState& s,
                                   ShardContext& ctx, LookupStats& st) {
  if (s.succ.empty()) return;
  Message m;
  m.src = net().peer_at(v);
  m.dst = s.succ[0].peer;
  m.type = MsgType::kChordNotify;
  m.words = {s.id};
  ctx.send(v, std::move(m));
  ++st.maintenance_messages;
}

// shardcheck:sharded-hook(called from both sharded lanes: round begin and dispatch)
void ChordNetProtocol::send_transfer(Vertex v, PeerId to, ItemId item,
                                     const std::vector<std::uint8_t>& bytes,
                                     bool primary, ShardContext& ctx,
                                     LookupStats& st,
                                     std::uint64_t ack_token) {
  if (to == kNoPeer || to == net().peer_at(v)) return;
  Message m;
  m.src = net().peer_at(v);
  m.dst = to;
  m.type = MsgType::kChordTransfer;
  m.words = {item, primary ? std::uint64_t{1} : 0, ack_token};
  m.set_blob(bytes);
  ctx.send(v, std::move(m));
  ++st.transfers;
}

// --- message handlers -------------------------------------------------------

bool ChordNetProtocol::on_message(Vertex v, const Message& m,
                                  ShardContext& ctx) {
  NodeState& s = nodes_[v];
  LookupStats& st = shard_stats_[ctx.shard()];
  const PeerId self = net().peer_at(v);
  const Round now = net().round();

  switch (m.type) {
    case MsgType::kChordLookup: {
      const ChordId key = m.words[0];
      const std::uint64_t token = m.words[1];
      const bool want_data = m.words[2] != 0;
      const PeerId origin = m.words[3];
      // shardcheck:ok(R6: dead-hop list parsed from one routed lookup message, O(carried dead hops))
      std::vector<PeerId> dead;
      // shardcheck:ok(R6: pre-sizing the same per-message dead-hop scratch)
      dead.reserve(m.words[4]);
      for (std::uint64_t i = 0; i < m.words[4]; ++i) {
        // shardcheck:ok(R6: appending the parsed dead hops, bounded by the message word count)
        dead.push_back(m.words[5 + i]);
      }
      Message reply;
      reply.src = self;
      reply.dst = origin;
      reply.type = MsgType::kChordLookupReply;
      const auto append_entries = [&reply](const Entry& head,
                                           const std::vector<Entry>& rest) {
        std::uint64_t count = 0;
        const std::size_t count_slot = reply.words.size();
        reply.words.push_back(0);
        if (head.peer != kNoPeer) {
          reply.words.push_back(head.peer);
          reply.words.push_back(head.id);
          ++count;
        }
        for (const Entry& e : rest) {
          if (e.peer == kNoPeer) continue;
          reply.words.push_back(e.peer);
          reply.words.push_back(e.id);
          ++count;
        }
        reply.words[count_slot] = count;
      };
      reply.words = {key, token, 0};
      if (!s.joined || s.succ.empty()) {
        // Can't-route nack: the origin re-routes next round instead of
        // burning a full retry timeout on our silence.
        append_entries(Entry{}, {});
      } else if ((want_data && keys_[v].count(key)) ||
                 (s.pred != kNoPeer && in_oc(s.pred_id, key, s.id))) {
        reply.words[2] = 1;  // done: I am the holder
        append_entries(Entry{self, s.id}, s.succ);
      } else if (in_oc(s.id, key, s.succ[0].id)) {
        reply.words[2] = 1;  // done: my successor list covers the key
        append_entries(Entry{}, s.succ);
      } else {
        // Semi-recursive forward: hand the lookup to the next hop (one
        // round per hop) and ack our choice to the origin so its failure
        // detector tracks the live frontier.
        Entry next = closest_preceding(s, key, dead);
        if (next.peer == kNoPeer) {
          for (const Entry& e : s.succ) {
            if (!contains_peer(dead, e.peer)) {
              next = e;
              break;
            }
          }
        }
        if (next.peer == kNoPeer) {
          append_entries(Entry{}, {});  // everything routable is dead: nack
        } else {
          Message fwd;
          fwd.src = self;
          fwd.dst = next.peer;
          fwd.type = MsgType::kChordLookup;
          fwd.words = m.words;  // key/token/want/origin/dead ride along
          fwd.set_trace_id(m.trace_id());
          ctx.send(v, std::move(fwd));
          ++st.hop_messages;
          if (m.trace_id() != 0) {
            // Router-side hop: the trace id rides the message, so forwards
            // made far from the initiator still land in its span.
            ctx.trace(make_trace_event(m.trace_id(), net().round(), v,
                                       kHopForward, 0,
                                       want_data ? RequestClass::kChordSearch
                                                 : RequestClass::kChordStore,
                                       TraceEv::kHop));
          }
          append_entries(next, {});
        }
      }
      ctx.send(v, std::move(reply));
      return true;
    }

    case MsgType::kChordLookupReply: {
      const std::uint64_t token = m.words[1];
      auto& list = lookups_[v];
      for (std::size_t i = 0; i < list.size(); ++i) {
        Lookup& lk = list[i];
        if (lk.token != token || lk.fetching || lk.storing) continue;
        const bool done = m.words[2] != 0;
        const std::uint64_t count = m.words[3];
        // shardcheck:ok(R6: entry list parsed from one lookup reply, O(successor-list) entries)
        std::vector<Entry> entries;
        entries.reserve(count);
        for (std::uint64_t e = 0; e < count; ++e) {
          entries.push_back(
              Entry{m.words[4 + 2 * e], m.words[4 + 2 * e + 1]});
        }
        for (const Entry& e : entries) learn_entry(s, e);
        bool finished = false;
        if (done) {
          finished = complete_resolution(v, lk, std::move(entries), now, ctx,
                                         st);
        } else if (!entries.empty() && entries[0].peer != kNoPeer) {
          // Progress ack: the named hop now carries the lookup; watch it.
          lk.hop = entries[0].peer;
          lk.sent = now;
          ++lk.hops;
        } else {
          // Can't-route nack (receiver not joined yet): re-issue from our
          // own tables next round.
          lk.hop = kNoPeer;
          lk.sent = now;
        }
        if (finished) list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      return true;
    }

    case MsgType::kChordStabilize: {
      Message reply;
      reply.src = self;
      reply.dst = m.src;
      reply.type = MsgType::kChordStabilizeReply;
      reply.words = {s.joined && s.pred != kNoPeer ? std::uint64_t{1} : 0,
                     s.pred, s.pred_id,
                     static_cast<std::uint64_t>(s.joined ? s.succ.size() : 0)};
      if (s.joined) {
        for (const Entry& e : s.succ) {
          reply.words.push_back(e.peer);
          reply.words.push_back(e.id);
        }
      }
      ctx.send(v, std::move(reply));
      ++st.maintenance_messages;
      return true;
    }

    case MsgType::kChordStabilizeReply: {
      // The asked peer answered: clear the failure detector even when it is
      // no longer succ[0] (a lookup timeout may have rotated the list), or
      // the next tick would evict the CURRENT successor for its silence.
      if (m.src == s.stab_target) s.stab_sent = kNever;
      if (!s.joined || s.succ.empty() || m.src != s.succ[0].peer) return true;
      s.stab_sent = kNever;
      const bool has_pred = m.words[0] != 0;
      const Entry succ0 = s.succ[0];
      const std::uint64_t count = m.words[3];
      // shardcheck:ok(R6: successor candidates parsed from one stabilize reply, O(successor-list) entries)
      std::vector<Entry> rest;
      rest.reserve(count + 1);
      Entry head = succ0;
      if (has_pred) {
        const Entry p{m.words[1], m.words[2]};
        if (p.peer != kNoPeer && p.peer != self &&
            in_oo(s.id, p.id, succ0.id)) {
          head = p;  // a closer successor surfaced between us and succ[0]
          rest.push_back(succ0);
        }
      }
      for (std::uint64_t e = 0; e < count; ++e) {
        rest.push_back(Entry{m.words[4 + 2 * e], m.words[4 + 2 * e + 1]});
      }
      adopt_successors(s, head, rest, self);
      learn_entry(s, head);
      for (const Entry& e : rest) learn_entry(s, e);
      send_notify(v, s, ctx, st);
      return true;
    }

    case MsgType::kChordNotify: {
      if (!s.joined) return true;
      const Entry p{m.src, m.words[0]};
      learn_entry(s, p);
      if (p.peer == s.pred) s.pred_seen = now;
      if (s.pred == kNoPeer || in_oo(s.pred_id, p.id, s.id)) {
        const bool changed = s.pred != p.peer;
        const bool had_pred = s.pred != kNoPeer;
        const ChordId old_pred_id = s.pred_id;
        s.pred = p.peer;
        s.pred_id = p.id;
        s.pred_seen = now;
        if (changed) {
          // Range handover: ONLY the slice we surrendered — keys in
          // (old_pred, new_pred] — moves to the new predecessor (which
          // re-pushes replicas as its primary). Transferring anything wider
          // (e.g. every key outside our range) makes stale copies creep
          // backwards around the ring forever. We keep our copy: we sit in
          // the key's successor set, and the lease retires it if not.
          // Conversely, keys we just ACQUIRED (our primary died and its
          // predecessor adopted us) are pushed to our replica set NOW — a
          // takeover that waited for the next replicate tick would race the
          // remaining copies' leases.
          for (auto& [item, rep] : keys_[v]) {
            if (had_pred && in_oc(old_pred_id, item, p.id)) {
              send_transfer(v, p.peer, item, rep.bytes, /*primary=*/true, ctx,
                            st);
            } else if (in_oc(p.id, item, s.id) &&
                       (!had_pred || !in_oc(old_pred_id, item, s.id))) {
              rep.refreshed = now;
              for (const Entry& e : s.succ) {
                send_transfer(v, e.peer, item, rep.bytes, /*primary=*/false,
                              ctx, st);
              }
            } else if (!had_pred && !in_oc(p.id, item, s.id)) {
              send_transfer(v, p.peer, item, rep.bytes, /*primary=*/true, ctx,
                            st);
            }
          }
        }
      }
      return true;
    }

    case MsgType::kChordFetch: {
      const ItemId item = m.words[0];
      Message reply;
      reply.src = self;
      reply.dst = m.src;
      reply.type = MsgType::kChordFetchReply;
      const auto it = keys_[v].find(item);
      const bool found = it != keys_[v].end();
      reply.words = {item, m.words[1], found ? std::uint64_t{1} : 0};
      if (found) {
        reply.set_blob(it->second.bytes);
      }
      ctx.send(v, std::move(reply));
      return true;
    }

    case MsgType::kChordFetchReply: {
      const std::uint64_t token = m.words[1];
      auto& list = lookups_[v];
      for (std::size_t i = 0; i < list.size(); ++i) {
        Lookup& lk = list[i];
        if (lk.token != token || !lk.fetching) continue;
        const bool found = m.words[2] != 0 &&
                           verify_payload(lk.key, m.blob().data(),
                                          m.blob().size());
        bool finished;
        if (found) {
          finish_search_success(v, lk, now, m.blob().data(), m.blob().size(),
                                ctx, st);
          finished = true;
        } else {
          // Holder answered but had no (valid) copy: try the next candidate.
          lk.hop = kNoPeer;
          ++lk.fetch_idx;
          finished = advance_fetch(v, lk, now, ctx, st);
        }
        if (finished) list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      return true;
    }

    case MsgType::kChordTransfer: {
      const ItemId item = m.words[0];
      Replica& rep = keys_[v][item];
      // shardcheck:ok(R6: replica payload copied once per transfer message, O(item bytes))
      rep.bytes.assign(m.blob().begin(), m.blob().end());
      rep.refreshed = now;
      if (m.words[1] != 0 && s.joined &&
          (s.pred == kNoPeer || in_oc(s.pred_id, item, s.id))) {
        // Primary placement: seed the replica set from here — but only if
        // the key actually falls in our range (a mis-targeted "primary"
        // push would otherwise spray copies from every handover).
        for (const Entry& e : s.succ) {
          send_transfer(v, e.peer, item, rep.bytes, /*primary=*/false, ctx,
                        st);
        }
      }
      if (m.words[2] != 0) {
        Message ack;
        ack.src = self;
        ack.dst = m.src;
        ack.type = MsgType::kChordStoreAck;
        ack.words = {item, m.words[2]};
        ctx.send(v, std::move(ack));
      }
      return true;
    }

    case MsgType::kChordStoreAck: {
      const std::uint64_t token = m.words[1];
      auto& list = lookups_[v];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].token != token || !list[i].storing) continue;
        ++st.stores_ok;
        if (list[i].trace != 0) {
          ctx.trace(make_trace_event(list[i].trace, now, v,
                                     now - list[i].started, list[i].hops,
                                     RequestClass::kChordStore,
                                     TraceEv::kEndOk));
        }
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      return true;
    }

    default:
      return false;
  }
}

}  // namespace churnstore
