#include "core/system.h"

#include "util/heap_sentinel.h"

namespace churnstore {

std::vector<std::unique_ptr<Protocol>> P2PSystem::paper_protocols(
    const SystemConfig& config) {
  auto soup = std::make_unique<TokenSoup>(config.walk);
  auto committees =
      std::make_unique<CommitteeManager>(*soup, config.protocol);
  auto landmarks = std::make_unique<LandmarkManager>(*soup, *committees,
                                                     config.protocol);
  auto store = std::make_unique<StoreManager>(*committees, *landmarks,
                                              config.protocol);
  auto searches = std::make_unique<SearchManager>(
      *soup, *committees, *landmarks, *store, config.protocol);

  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(soup));
  mods.push_back(std::move(committees));
  mods.push_back(std::move(landmarks));
  mods.push_back(std::move(store));
  mods.push_back(std::move(searches));
  return mods;
}

P2PSystem::P2PSystem(const SystemConfig& config)
    : P2PSystem(config, paper_protocols(config)) {}

P2PSystem::P2PSystem(const SystemConfig& config,
                     std::vector<std::unique_ptr<Protocol>> protocols)
    : config_(config),
      net_(std::make_unique<Network>(config_.sim)),
      protocols_(std::move(protocols)),
      protocol_secs_(protocols_.size(), 0.0) {
  for (const auto& p : protocols_) p->on_attach(*net_);
  soup_ = find_protocol<TokenSoup>();
  committees_ = find_protocol<CommitteeManager>();
  landmarks_ = find_protocol<LandmarkManager>();
  store_ = find_protocol<StoreManager>();
  searches_ = find_protocol<SearchManager>();
}

void P2PSystem::enable_adaptive_adversary() {
  committees().expose_to_adaptive_adversary();
}

void P2PSystem::run_round() {
  const HeapQuiesceScope heap_probe;  // process-wide: sees pool threads too
  using clock = std::chrono::steady_clock;
  const bool timed = phase_timers_.enabled;
  clock::time_point t0;
  if (timed) t0 = clock::now();
  auto lap = [&](double RoundPhaseTimers::*field) {
    if (!timed) return;
    const auto t1 = clock::now();
    phase_timers_.*field += std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
  };

  net_->begin_round();  // adversary: churn + edge dynamics
  lap(&RoundPhaseTimers::churn_secs);
  for (std::size_t pi = 0; pi < protocols_.size(); ++pi) {
    protocols_[pi]->step();
    if (timed) {
      const auto t1 = clock::now();
      protocol_secs_[pi] += std::chrono::duration<double>(t1 - t0).count();
      t0 = t1;
    }
  }
  net_->deliver();      // messages sent this round arrive
  lap(&RoundPhaseTimers::deliver_secs);
  dispatch_inboxes();   // receivers process them
  lap(&RoundPhaseTimers::dispatch_secs);

  const HeapSentinel::Totals d = heap_probe.delta();
  ++heap_stats_.rounds;
  heap_stats_.allocs += d.allocs;
  heap_stats_.frees += d.frees;
  heap_stats_.bytes += d.bytes;

  // Observability epilogue, after the heap delta is read: the trace drain
  // is heap-quiet, but the collector's consumer and the round observer are
  // exporters (file IO, JSON) whose allocations are exporter overhead, not
  // engine traffic — they stay out of heap_stats_ by construction.
  if (TraceCollector* tc = net_->trace_collector()) {
    tc->end_round(net_->round());
  }
  if (observer_ != nullptr) observer_->on_round_observed(*this);
}

void P2PSystem::run_rounds(std::uint32_t k) {
  for (std::uint32_t i = 0; i < k; ++i) run_round();
}

void P2PSystem::dispatch_inboxes() {
  // Each message's consume chain walks the protocols in registration order
  // on its destination shard's lane; replies stage through ctx.
  net_->run_sharded([this](std::uint32_t s) {
    ShardContext ctx(*net_, s);
    const ShardPlan& plan = net_->shards();
    for (Vertex v = plan.begin(s); v < plan.end(s); ++v) {
      for (const Message& m : net_->inbox(v)) {
        for (const auto& p : protocols_) {
          if (p->on_message(v, m, ctx)) break;
        }
      }
    }
  });
  const ScopedArenaBind serial(&net_->serial_arena());
  for (const auto& p : protocols_) p->on_dispatch_merge();
  // Each inbox is a view into the send lanes the messages were built in;
  // the replies go into the lanes deliver() emptied. Flush them NOW so next
  // round's first protocol phase appends behind them rather than joining
  // their run (one run per lane per flush keeps the order S-independent).
  // Replies are charged after deliver()'s end_round, i.e. to the next
  // round — exactly where the serial engine charged dispatch-time sends.
  net_->flush_shard_lanes();
}

bool P2PSystem::store_item(Vertex creator, ItemId item) {
  return store_item(creator, item,
                    make_payload(item, config_.protocol.item_bits));
}

bool P2PSystem::store_item(Vertex creator, ItemId item,
                           std::vector<std::uint8_t> payload) {
  return store().store(creator, item, std::move(payload));
}

std::uint64_t P2PSystem::search(Vertex initiator, ItemId item) {
  return searches().start_search(initiator, item);
}

}  // namespace churnstore
