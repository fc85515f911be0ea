#include "baseline/kwalker.h"

#include <algorithm>
#include <cmath>

namespace churnstore {

KWalkerSearch::KWalkerSearch(TokenSoup& soup, Options options)
    : soup_(soup), options_(options) {}

void KWalkerSearch::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  stream_salt_ = net().protocol_rng().fork(0x6b77616cULL).next();
  held_.assign(net().n(), {});
  stage_.assign(net().shards().count(), {});
  ttl_ = 4 * soup_.tau();
}

void KWalkerSearch::on_churn(Vertex v, PeerId, PeerId) {
  held_[v].clear();
  // Walkers currently sitting at v die with the peer that was carrying them.
  for (auto& w : walkers_) {
    if (w.at == v && w.ttl > 0) {
      w.ttl = 0;
      ++walkers_lost_;
      --searches_.at(w.sid).walkers;
    }
  }
}

bool KWalkerSearch::try_store(Vertex creator, ItemId item) {
  const auto want = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(net().n()))));
  PeerList targets;
  soup_.samples(creator).recent_distinct(want, targets);
  if (targets.size() < std::max<std::size_t>(1, want / 2)) return false;
  const PeerId self = net().peer_at(creator);
  for (const PeerId t : targets) {
    Message msg;
    msg.src = self;
    msg.dst = t;
    msg.type = MsgType::kFloodData;
    msg.words = {item};
    msg.set_payload_bits(options_.item_bits);
    net().send(creator, std::move(msg));
    // Place synchronously for the god view (the message also charges cost).
    if (const auto tv = net().find_vertex(t)) held_[*tv].insert(item);
  }
  placed_[item] = targets.to_vector();
  return true;
}

std::uint64_t KWalkerSearch::begin_search(Vertex initiator, ItemId item) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x6b77ULL) | 1;
  searches_[sid] = Search{WorkloadOutcome{}, net().round() + ttl_,
                          options_.walkers, net().peer_at(initiator)};
  pending_.push_back(sid);
  for (std::uint32_t i = 0; i < options_.walkers; ++i) {
    walkers_.push_back(Walker{sid, item, initiator, ttl_});
  }
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(sid)) {
    traced_.push_back(TracedProbe{sid, initiator, net().round()});
    tc->record(make_trace_event(sid, net().round(), initiator, 0,
                                options_.walkers, RequestClass::kWalkerProbe,
                                TraceEv::kBegin));
  }
  return sid;
}

WorkloadOutcome KWalkerSearch::search_outcome(std::uint64_t sid) const {
  const auto it = searches_.find(sid);
  if (it == searches_.end()) return WorkloadOutcome{};
  const Search& s = it->second;
  WorkloadOutcome out = s.outcome;
  out.done = out.done || s.walkers == 0 || net().round() >= s.deadline;
  return out;
}

std::size_t KWalkerSearch::copies_alive(ItemId item) const {
  const auto it = placed_.find(item);
  if (it == placed_.end()) return 0;
  std::size_t alive = 0;
  for (const PeerId p : it->second) {
    const auto v = net().find_vertex(p);
    if (v && held_[*v].count(item)) ++alive;
  }
  return alive;
}

void KWalkerSearch::on_round_begin() {
  // A search whose initiator churned out before it located is censored,
  // the rule every stack applies: the guarantee is for searchers that stay.
  // Censoring is bookkeeping only. The walkers cannot know their searcher
  // left, so they walk on until their TTL or their carrier ends them; a hit
  // they make no longer counts.
  std::size_t write = 0;
  for (const std::uint64_t sid : pending_) {
    Search& s = searches_.at(sid);
    if (s.outcome.done) continue;  // located
    if (!net().find_vertex(s.initiator)) {
      s.outcome.done = s.outcome.censored = true;
      continue;
    }
    if (search_outcome(sid).done) continue;  // a miss: no walker left
    pending_[write++] = sid;
  }
  pending_.resize(write);
  // Partition the walker index range across the engine's shard count; the
  // walkers themselves are processed in the sharded hook.
  walker_plan_ = ShardPlan(static_cast<std::uint32_t>(walkers_.size()),
                           net().shards().count());
}

void KWalkerSearch::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  (void)ctx;  // walkers send nothing; their charges stage per shard
  if (walkers_.empty() || shard >= walker_plan_.count()) return;
  const RegularGraph& g = net().graph();
  const std::uint32_t d = g.degree();
  const std::uint64_t round_key =
      mix64(stream_salt_ ^ static_cast<std::uint64_t>(net().round()));
  ShardStage& stage = stage_[shard];
  for (std::uint32_t i = walker_plan_.begin(shard);
       i < walker_plan_.end(shard); ++i) {
    Walker w = walkers_[i];
    if (w.ttl == 0) continue;
    if (searches_.at(w.sid).outcome.located) continue;
    // Per-(round, walker) stream: trajectories are independent of the
    // shard partition and of sibling walkers' draws.
    Rng rng = stream_rng(round_key, i);
    w.at = g.neighbor(w.at, static_cast<std::uint32_t>(rng.next_below(d)));
    --w.ttl;
    // Processing charge (item id + sid + ttl), applied at the merge: w.at
    // may be another shard's vertex.
    // shardcheck:ok(R6: staged walker charges: O(active walkers) per round, amortized by vector capacity reuse)
    stage.charges.emplace_back(w.at, 64 + 64 + 16);
    if (held_[w.at].count(w.item)) {
      // Same-round sibling hits resolve at the merge (first in canonical
      // walker order wins); the walker retires either way.
      // shardcheck:ok(R6: staged walker hits: O(walkers hitting this round), k-walker baseline makes no heap-quiet claim)
      stage.hit_sids.push_back(w.sid);
      continue;
    }
    // shardcheck:ok(R6: surviving walkers restaged each round: O(active walkers), amortized by vector capacity reuse)
    if (w.ttl > 0) stage.survivors.push_back(w);
  }
}

void KWalkerSearch::on_round_merge() {
  const Round now = net().round();
  walkers_.clear();
  for (ShardStage& stage : stage_) {
    for (const std::uint64_t sid : stage.hit_sids) {
      WorkloadOutcome& out = searches_.at(sid).outcome;
      if (!out.done) {
        out.done = out.located = out.fetched = true;
        out.located_round = out.fetched_round = now;
      }
    }
    stage.hit_sids.clear();
    walkers_.insert(walkers_.end(), stage.survivors.begin(),
                    stage.survivors.end());
    stage.survivors.clear();
    for (const auto& [v, bits] : stage.charges) {
      net().charge_processing(v, bits);
    }
    stage.charges.clear();
  }

  // Resolve sampled probes (serial; traced_ is empty unless sampling hit):
  // each ends the round its search is done, ok if a walker located the item,
  // censored if its initiator left first.
  if (!traced_.empty()) {
    std::size_t write = 0;
    for (std::size_t read = 0; read < traced_.size(); ++read) {
      const TracedProbe& tp = traced_[read];
      const WorkloadOutcome out = search_outcome(tp.sid);
      if (!out.done) {
        traced_[write++] = tp;
        continue;
      }
      net().trace_serial(make_trace_event(
          tp.sid, now, tp.initiator,
          (out.located ? out.located_round : now) - tp.start,
          options_.walkers, RequestClass::kWalkerProbe,
          out.located    ? TraceEv::kEndOk
          : out.censored ? TraceEv::kEndCensored
                         : TraceEv::kEndFail));
    }
    traced_.resize(write);
  }
}

}  // namespace churnstore
