// C1 — Capacity: one big network instead of many small trials.
//
// The regime where the Soup Theorem's log-n bounds actually matter is
// n >= 100k — and a single run at that scale is exactly what per-trial
// parallelism cannot speed up. This scenario is the sharded round engine's
// showcase: many stored items with concurrent searchers in flight, the SAME
// seed re-run at each shard count, reporting wall-clock rounds/sec serial
// vs sharded. Results (locate rate, tokens) are bit-identical across rows
// of one n; only the speed changes.
//
//   bench_driver --scenario=capacity                         # n=100000
//   bench_driver --scenario=capacity n=16384 shard-sweep=1,4,16
//   bench_driver --scenario=capacity protocol=chord n=100000  # DHT at scale
//
// Keys: shard-sweep (default 1,4,16), measure-rounds (default 2 tau, at
// least 1), items, searches; threads caps the pool (0 = hardware). Besides
// total rounds/sec the table breaks the round into phases (soup / handler /
// delivery rounds-per-second), so the per-phase sharding wins are visible
// in isolation. An ungated sweep tool: the one performance gate is the
// ledger (ledger/, BENCHMARK.json), which runs the paper stack at n=4096.
#include <chrono>

#include "scenario_common.h"
#include "util/resource.h"
#include "util/thread_pool.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

CHURNSTORE_SCENARIO(capacity,
                    "C1: large-n capacity — rounds/sec serial vs sharded, "
                    "same seed, bit-identical results") {
  reject_obs_keys(spec.extras);
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {100000};
  if (!cli.has("items")) base.workload.items = 64;
  if (!cli.has("searches")) base.workload.searchers_per_batch = 128;
  if (cli.has("measure-rounds")) {
    require_nonzero("measure-rounds", cli_count(cli, "measure-rounds", 0));
  }

  banner(base, "C1 capacity — sharded round engine at large n",
         "rounds/sec for one big run vs shard count; the workload outcome "
         "is bit-identical per n (sharding is an execution detail)");

  const std::vector<std::uint32_t> sweep =
      cli_count_list(cli, "shard-sweep", {1, 4, 16});

  ThreadPool pool(base.threads);
  // Per-phase columns isolate where a round goes: soup = TokenSoup's token
  // moves, handlers = every other protocol's (sharded) round hooks,
  // delivery = lane flush + inbox filing + message dispatch. Each prints as
  // rounds/sec of that phase alone, so the handler-sharding win is
  // measurable separately from the soup's.
  Table t({"n", "shards", "churn/rd", "rounds/sec", "speedup", "soup r/s",
           "handler r/s", "deliver r/s", "tokens", "searches",
           "locate rate", "maxrss MB"});
  for (const std::uint32_t n : base.ns) {
    double baseline_rps = 0.0;
    for (const std::uint32_t shards : sweep) {
      SystemConfig cfg = base.with_n(n).system_config();
      cfg.sim.shards = shards;
      // Any registered stack runs here (protocol=chord measures the DHT at
      // capacity scale); the soup phase column is 0 for soup-less stacks.
      BuiltSystem built = build_stack(base.protocol, cfg, base.extras);
      P2PSystem& sys = *built.system;
      if (shards != 1 && base.parallel) sys.set_shard_pool(&pool);
      StorageService& svc = *built.service;
      Rng workload(mix64(base.seed ^ 0x63617061ULL));

      sys.run_rounds(sys.warmup_rounds());
      std::vector<ItemId> items;
      for (std::uint32_t i = 0; i < base.workload.items; ++i) {
        const ItemId item = mix64(base.seed * 1000 + i) | 1;
        for (int attempt = 0; attempt < 16; ++attempt) {
          const auto creator =
              static_cast<Vertex>(workload.next_below(sys.n()));
          if (svc.try_store(creator, item)) {
            items.push_back(item);
            break;
          }
          sys.run_round();
        }
      }
      std::vector<std::uint64_t> sids;
      for (std::uint32_t s = 0; s < base.workload.searchers_per_batch; ++s) {
        if (items.empty()) break;
        const ItemId item = items[workload.next_below(items.size())];
        const auto initiator =
            static_cast<Vertex>(workload.next_below(sys.n()));
        sids.push_back(svc.begin_search(initiator, item));
      }

      // Timed section: full-stack rounds with searches in flight.
      const std::uint32_t measure =
          cli_count(cli, "measure-rounds", 2 * sys.tau());
      sys.enable_phase_timing(true);
      sys.reset_phase_timers();
      const auto t0 = std::chrono::steady_clock::now();
      sys.run_rounds(measure);
      const auto t1 = std::chrono::steady_clock::now();
      sys.enable_phase_timing(false);
      const RoundPhaseTimers& ph = sys.phase_timers();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const double rps = secs > 0.0 ? measure / secs : 0.0;
      if (baseline_rps == 0.0) baseline_rps = rps;
      auto phase_rps = [measure](double phase_secs) {
        return phase_secs > 0.0 ? measure / phase_secs : 0.0;
      };

      // Settle the searches (untimed) so the rate column means something.
      const std::uint32_t settled = measure >= svc.search_timeout() + 4
                                        ? 0
                                        : svc.search_timeout() + 4 - measure;
      sys.run_rounds(settled);
      std::uint64_t located = 0;
      for (const std::uint64_t sid : sids) {
        located += svc.search_outcome(sid).located;
      }
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(shards))
          .cell(static_cast<std::int64_t>(cfg.sim.churn.per_round(n)))
          .cell(rps, 2)
          .cell(baseline_rps > 0.0 ? rps / baseline_rps : 0.0, 2)
          .cell(phase_rps(ph.soup_secs), 2)
          .cell(phase_rps(ph.handler_secs), 2)
          .cell(phase_rps(ph.deliver_secs + ph.dispatch_secs), 2)
          .cell(static_cast<std::uint64_t>(
              sys.find_protocol<TokenSoup>() != nullptr
                  ? sys.soup().tokens_alive()
                  : 0))
          .cell(static_cast<std::uint64_t>(sids.size()))
          .cell(sids.empty() ? 0.0
                             : static_cast<double>(located) /
                                   static_cast<double>(sids.size()),
                3)
          .cell(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), 1);
    }
  }
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
