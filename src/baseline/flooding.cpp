#include "baseline/flooding.h"

#include <algorithm>

#include "util/rng.h"

namespace churnstore {

FloodingStore::FloodingStore(Options options) : options_(options) {}

void FloodingStore::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  held_.assign(net().n(), {});
  forwarded_.assign(net().n(), {});
  frontiers_.assign(net().shards().count(), {});
}

void FloodingStore::on_churn(Vertex v, PeerId, PeerId) {
  held_[v].clear();
  forwarded_[v].clear();
}

std::size_t FloodingStore::copies_alive(ItemId item) const {
  std::size_t acc = 0;
  for (const auto& s : held_) acc += s.count(item);
  return acc;
}

bool FloodingStore::try_store(Vertex creator, ItemId item) {
  held_[creator].insert(item);
  frontiers_[net().shards().shard_of(creator)].emplace_back(creator, item);
  return true;
}

std::uint64_t FloodingStore::begin_search(Vertex initiator, ItemId item) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x666c64ULL) | 1;
  pending_lookups_.push_back(PendingLookup{sid, net().peer_at(initiator), item});
  outcomes_[sid] = WorkloadOutcome{};
  return sid;
}

WorkloadOutcome FloodingStore::search_outcome(std::uint64_t sid) const {
  const auto it = outcomes_.find(sid);
  return it == outcomes_.end() ? WorkloadOutcome{} : it->second;
}

void FloodingStore::on_round_begin() {
  // Resolve pending local lookups: retrieval under flooding is a local
  // table check at the initiator (if it survived to this round).
  std::vector<PendingLookup> lookups;
  lookups.swap(pending_lookups_);
  for (const PendingLookup& lk : lookups) {
    WorkloadOutcome& out = outcomes_[lk.sid];
    out.done = true;
    const auto v = net().find_vertex(lk.initiator);
    if (!v) {
      out.censored = true;
      continue;
    }
    if (held_[*v].count(lk.item)) {
      out.located = out.fetched = true;
      out.located_round = out.fetched_round = net().round();
    }
  }

  // Periodic refresh: every holder re-enters the frontier so newly churned-
  // in nodes eventually receive the item again.
  if (options_.refresh_period != 0 &&
      net().round() % options_.refresh_period == 0) {
    const ShardPlan& plan = net().shards();
    for (Vertex v = 0; v < net().n(); ++v) {
      forwarded_[v].clear();
      for (const ItemId item : held_[v]) {
        frontiers_[plan.shard_of(v)].emplace_back(v, item);
      }
    }
  }
}

void FloodingStore::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // shardcheck:ok(R6: frontier swap-out: O(flood entries this round); the flooding baseline allocates by design and makes no heap-quiet claim)
  std::vector<std::pair<Vertex, ItemId>> frontier;
  frontier.swap(frontiers_[shard]);
  // Canonical order: ascending vertex (stable per vertex). Dispatch stages
  // entries in ascending order already, but try_store()/refresh injections
  // may not be; sorting makes the merged flood stream identical for every
  // shard count.
  std::stable_sort(frontier.begin(), frontier.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const RegularGraph& g = net().graph();
  for (const auto& [v, item] : frontier) {
    if (!held_[v].count(item)) continue;  // churned away since queued
    if (!forwarded_[v].insert(item).second) continue;
    const PeerId self = net().peer_at(v);
    for (std::uint32_t i = 0; i < g.degree(); ++i) {
      Message msg;
      msg.src = self;
      msg.dst = net().peer_at(g.neighbor(v, i));
      msg.type = MsgType::kFloodData;
      msg.words = {item};
      msg.set_payload_bits(options_.item_bits);
      ctx.send(v, std::move(msg));
    }
  }
}

bool FloodingStore::on_message(Vertex v, const Message& m, ShardContext& ctx) {
  if (m.type != MsgType::kFloodData) return false;
  const ItemId item = m.words[0];
  if (held_[v].insert(item).second) {
    frontiers_[ctx.shard()].emplace_back(v, item);
  }
  return true;
}

}  // namespace churnstore
