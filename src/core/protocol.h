// The pluggable protocol-module interface.
//
// Every distributed algorithm in the repository — the paper's random-walk
// soup, committee, landmark, storage and search layers, and each baseline
// (flooding, sqrt-replication, k-walker, Chord) — implements Protocol and
// plugs into the one simulation driver (P2PSystem). The driver runs the
// paper's synchronous round structure, sharded end to end:
//
//   net.begin_round()                  adversary fixes churn + G^r
//   for p in protocols (registration order): p.step()
//     p.on_round_begin()                      serial prologue
//     run_sharded(s -> p.on_round_begin(s, ctx))     per-shard round work
//     p.on_round_merge()                      serial staging merge
//     net.flush_shard_lanes()                 canonical send/charge merge
//   net.deliver()                      messages sent this round arrive
//   run_sharded by destination shard:  for each vertex v, message m, the
//     for p in protocols: ...          first protocol whose on_message
//                                      returns true consumes m
//   for p: p.on_dispatch_merge()       serial staging merge after dispatch
//
// The ShardContext contract (what a sharded hook body may do). The
// mechanically checkable clauses are enforced by the in-repo linter,
// tools/shardcheck (scripts/check.sh --lint); the [shardcheck-Rn] tags
// below name the rule that guards each clause:
//   - read/write state owned by vertices in [ctx.begin(), ctx.end()) only,
//     iterating them in ASCENDING order — and never iterate unordered
//     containers, whose bucket order is not shard-count-invariant
//     [shardcheck-R2];
//   - read any state that no protocol mutates during the current phase
//     (the graph, peer table, sibling protocols' per-vertex state);
//   - send through ctx.send, which stages into the shard's lane and merges
//     in canonical (shard, vertex) order, so the observable stream is
//     independent of the shard count; a processing charge to a vertex
//     stages per shard too, and the merge applies it
//     (Network::charge_processing) in ascending shard order. Direct
//     net().send and metrics charges are banned [shardcheck-R3];
//   - stage every cross-shard mutation (global registries, index maps,
//     global counters) per shard and apply it in on_round_merge /
//     on_dispatch_merge, scanning shards in ascending order (merge bodies
//     are also R2-checked — unordered iteration there leaks bucket order
//     into the observable stream);
//   - draw randomness from counter-based per-(round, vertex) streams
//     (util/rng.h stream_rng), never from a shared sequential Rng
//     [shardcheck-R1] — and, everywhere in src/, never from ambient
//     sources (rand, std::random_device, wall clocks) or mutable static
//     state [shardcheck-R4]; pointer-keyed ordering is equally
//     non-deterministic across runs [shardcheck-R5];
//   - never allocate from the global heap at steady state: no new /
//     make_unique / make_shared, no std::function construction, no local
//     std containers without ArenaAllocator, no growth of members that
//     have not declared their arena discipline [shardcheck-R6]. Draw from
//     the shard arena or pre-sized member buffers; hoist one-time setup to
//     on_attach / the serial prologue. The claim is enforced twice: R6
//     statically, and util/heap_sentinel.h's HeapQuiesceScope dynamically
//     around every P2PSystem::run_round (tests/heap_quiesce_test.cpp
//     asserts 0 allocs/round over measured steady-state rounds).
//   - declare, at the declaration site, where every container member's
//     storage comes from: ArenaAllocator in the type, or an arena-backed /
//     cold-state annotation comment on the line above (syntax in
//     tools/shardcheck/shardcheck.h) [shardcheck-R7]. arena-backed exempts
//     the member from R6 growth checks; cold-state documents that only
//     cold serial context ever resizes it (hot growth still fires).
// Under that contract the SAME seed is bit-identical for EVERY shards=
// value, serial or pooled (tests/sharded_engine_test.cpp). Helper
// functions reachable only from sharded hooks opt into the same checks
// with the linter's sharded-hook annotation comment above their
// definition; per-round helpers outside any hook opt into R6 alone with
// the hot-path annotation (syntax in tools/shardcheck/shardcheck.h).
//
// Attachment: on_attach(net) is called exactly once, before the first
// round, in registration order. The base implementation records the network
// and registers on_churn as a churn hook (Network::add_churn_hook), so the
// protocols hear of each replaced peer in registration order; overrides call
// Protocol::on_attach(net) first, then size per-vertex state and derive
// constants from net.config(). A protocol that depends on a sibling (e.g.
// CommitteeManager reads TokenSoup's tau) must be registered after it.
#pragma once

#include <cassert>
#include <string_view>

#include "net/network.h"

namespace churnstore {

/// Handle a sharded hook receives: identifies the shard, exposes its vertex
/// range, and routes sends through the shard's staging lane.
class ShardContext {
 public:
  ShardContext(Network& net, std::uint32_t shard) noexcept
      : net_(net), shard_(shard) {}

  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return net_.shards(); }
  /// The contiguous vertex range this shard owns.
  [[nodiscard]] Vertex begin() const noexcept { return plan().begin(shard_); }
  [[nodiscard]] Vertex end() const noexcept { return plan().end(shard_); }

  [[nodiscard]] Network& net() const noexcept { return net_; }

  /// Queue a message from the peer at `from`, which must be a vertex of
  /// this shard (Network::send_sharded throws otherwise). It is charged to
  /// `from` now and merged canonically at the next lane flush.
  void send(Vertex from, Message&& m) {
    net_.send_sharded(shard_, from, std::move(m));
  }
  /// True when a TraceCollector is installed (span events will be kept).
  [[nodiscard]] bool tracing() const noexcept {
    return net_.trace_collector() != nullptr;
  }
  /// Stage a request-trace event on this shard's lane (obs/trace.h);
  /// merged in canonical order with the message lanes. No-op untraced.
  void trace(const TraceEvent& ev) { net_.trace_sharded(shard_, ev); }

 private:
  Network& net_;
  std::uint32_t shard_;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Join a network: register the churn hook, size per-vertex state,
  /// derive constants. Overrides must call Protocol::on_attach(net) first.
  virtual void on_attach(Network& net);

  /// --- round hooks --------------------------------------------------------
  /// One round of this protocol's work: on_round_begin(), then
  /// on_round_begin(shard, ctx) over the shard plan, then on_round_merge(),
  /// then a lane flush. P2PSystem::run_round calls this after churn/edge
  /// dynamics fixed G^r; standalone tests and benches call it directly
  /// between Network::begin_round() and Network::deliver().
  void step();

  /// Serial prologue, in registration order, before the sharded round work.
  virtual void on_round_begin() {}

  /// Per-shard round work (see the ShardContext contract above). Runs once
  /// per shard, possibly concurrently, between on_round_begin() and
  /// on_round_merge().
  virtual void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    (void)shard;
    (void)ctx;
  }

  /// Serial epilogue after every shard of on_round_begin(shard, ctx)
  /// returned: apply staged cross-shard mutations in canonical order.
  virtual void on_round_merge() {}

  /// --- message dispatch ---------------------------------------------------
  /// Offered every message delivered to vertex `v` this round; return true
  /// to consume it (stops the chain). Dispatch runs concurrently by
  /// destination shard: touch only state owned by `v` plus per-shard
  /// staging, and send replies through ctx, which is bound to v's shard.
  virtual bool on_message(Vertex v, const Message& m, ShardContext& ctx) {
    (void)v;
    (void)m;
    (void)ctx;
    return false;
  }

  /// Serial epilogue after all inboxes dispatched: apply staged cross-shard
  /// mutations from on_message in canonical order.
  virtual void on_dispatch_merge() {}

  /// The peer occupying `v` was replaced by a fresh one; drop the lost
  /// peer's state. Network::begin_round calls it through the churn hook
  /// that on_attach registered.
  virtual void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) {
    (void)v;
    (void)old_peer;
    (void)new_peer;
  }

  [[nodiscard]] bool attached() const noexcept { return net_ != nullptr; }

 protected:
  [[nodiscard]] Network& net() const noexcept {
    assert(net_ != nullptr && "protocol used before on_attach");
    return *net_;
  }

 private:
  Network* net_ = nullptr;
};

}  // namespace churnstore
