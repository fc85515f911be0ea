// M2 — Soup-step throughput vs shard count (the engine's microbench).
//
// Isolates the sharded TokenSoup::step() kernel: a standalone soup on a
// churning network, warmed to steady state, then a timed run of bare
// begin_round/step/deliver rounds at each shard count. An ungated sweep
// tool: the one performance gate is the ledger (ledger/, BENCHMARK.json),
// whose soup-50k workload times the same kernel; this scenario covers the
// sizes and shard counts the ledger does not run:
//
//   bench_driver --scenario=soup_step                   # n=4096,16384
//   bench_driver --scenario=soup_step n=100000 shard-sweep=1,4,16
//
// Keys: shard-sweep (default 1,4,16), steps (timed rounds, default 128,
// at least 1); threads caps the pool (0 = hardware). counters=true adds
// perf-counter columns (cycles / LLC misses / dTLB misses per forwarded
// token) when perf_event_open works, "n/a" where it is denied.
#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "scenario_common.h"
#include "util/heap_sentinel.h"
#include "util/perf_counters.h"
#include "util/resource.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

namespace churnstore::bench {

void run_soup_step(const ScenarioSpec& spec, const Cli& cli) {
  ScenarioSpec base = spec;
  const std::uint32_t steps = cli_count(cli, "steps", 128);
  require_nonzero("steps", steps);
  const bool want_counters = cli.get_bool("counters", false);
  // Big-n memory guard: the steady state holds ~ n * walks * length tokens
  // (x2 transiently during the handoff merge) plus the sample-buffer
  // window, which at the default soup density is tens of GB for n=1M. Large
  // runs therefore use a thinner soup so n=1M stays inside a 4 GB host.
  // The thinning is NOT silent: the applied density is a table/JSON column
  // ("walk-rate"/"thinned"), and explicit user-set densities at this scale
  // are rejected up front — running them would either blow the memory
  // budget or mislabel the workload, and the guard must never silently
  // substitute its own numbers for the caller's.
  const std::uint32_t big_n =
      *std::max_element(base.ns.begin(), base.ns.end());
  const bool thinned = big_n >= 500000;
  if (thinned) {
    if (cli.has("walk-rate") || cli.has("walk-t") || cli.has("walk-window")) {
      throw std::invalid_argument(
          "soup_step: explicit walk-rate/walk-t/walk-window are not "
          "honored at n >= 500000 — the big-n memory guard pins the soup "
          "density (walk-rate=0.25 walk-t=0.75 walk-window=1.0, reported "
          "in the walk-rate/thinned columns). Run n < 500000 to sweep "
          "densities, or drop the density keys.");
    }
    base.walk.rate_mult = 0.25;
    base.walk.t_mult = 0.75;
    base.walk.window_mult = 1.0;
  }

  banner(base, "M2 soup_step — sharded soup-step throughput",
         "steady-state token moves per second vs shard count; >= 2x at 4+ "
         "shards on a multi-core host is the engine's acceptance bar");
  if (thinned && !base.csv && !base.json) {
    std::printf(
        "NOTE: n >= 500000 — soup density thinned to walk-rate=%.2f "
        "walk-t=%.2f walk-window=%.2f (big-n memory guard)\n\n",
        base.walk.rate_mult, base.walk.t_mult, base.walk.window_mult);
  }

  const std::vector<std::uint32_t> sweep =
      cli_count_list(cli, "shard-sweep", {1, 4, 16});

  ThreadPool pool(base.threads);
  std::vector<std::string> cols = {"n",       "shards",      "threads",
                                   "steps/sec", "Mtokens/sec", "speedup",
                                   "walk-rate", "thinned",     "maxrss MB"};
  if (want_counters) {
    cols.insert(cols.end(),
                {"cyc/tok", "LLCm/tok", "dTLBm/tok", "allocs/rnd", "heapB/rnd"});
  }
  Table t(cols);
  for (const std::uint32_t n : base.ns) {
    double baseline_sps = 0.0;
    for (const std::uint32_t shards : sweep) {
      SystemConfig cfg = base.with_n(n).system_config();
      cfg.sim.shards = shards;
      Network net(cfg.sim);
      if (shards != 1 && base.parallel) net.set_worker_pool(&pool);
      TokenSoup soup(net, cfg.walk);
      // Fill the pipeline so the timed section measures the steady state.
      for (std::uint32_t i = 0; i < 2 * soup.tau(); ++i) {
        net.begin_round();
        soup.step();
        net.deliver();
      }
      const double tokens_per_step =
          static_cast<double>(soup.tokens_alive());
      PerfCounters counters;
      if (want_counters) counters.start();
      const HeapQuiesceScope heap_probe;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint32_t i = 0; i < steps; ++i) {
        net.begin_round();
        soup.step();
        net.deliver();
      }
      const auto t1 = std::chrono::steady_clock::now();
      if (want_counters) counters.stop();
      // Read both before the row's cells are appended: the table's own
      // allocations are not soup-step work.
      const HeapSentinel::Totals heap = heap_probe.delta();
      const PerfCounters::Values v = counters.read();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const double sps = secs > 0.0 ? steps / secs : 0.0;
      if (baseline_sps == 0.0) baseline_sps = sps;
      auto& row =
          t.begin_row()
              .cell(static_cast<std::int64_t>(n))
              .cell(static_cast<std::int64_t>(shards))
              .cell(static_cast<std::int64_t>(pool.size()))
              .cell(sps, 2)
              .cell(sps * tokens_per_step / 1e6, 2)
              .cell(baseline_sps > 0.0 ? sps / baseline_sps : 0.0, 2)
              .cell(base.walk.rate_mult, 2)
              .cell(static_cast<std::int64_t>(thinned ? 1 : 0))
              .cell(static_cast<double>(peak_rss_bytes()) /
                        (1024.0 * 1024.0),
                    1);
      if (want_counters) {
        // Per-token rates over the whole timed region. Counters that did
        // not open (denied/absent perf_event_open) print "n/a": the
        // degraded path is a supported, CI-exercised state, never a crash
        // and never silent zeros dressed up as measurements.
        const double toks = tokens_per_step * steps;
        const auto rate_cell = [&](bool ok, std::uint64_t count) {
          if (ok && toks > 0.0) {
            row.cell(static_cast<double>(count) / toks, 3);
          } else {
            row.cell("n/a");
          }
        };
        rate_cell(v.cycles_ok, v.cycles);
        rate_cell(v.llc_misses_ok, v.llc_misses);
        rate_cell(v.dtlb_misses_ok, v.dtlb_misses);
        // Heap-sentinel columns (util/heap_sentinel.h): allocations and
        // bytes per round across the timed region — the steady-state claim
        // the HeapQuiesce tests pin, visible per configuration. Same "n/a"
        // degradation contract as the perf counters when the sentinel is
        // compiled out or forced off.
        if (HeapSentinel::available() && steps > 0) {
          row.cell(static_cast<double>(heap.allocs) / steps, 3);
          row.cell(static_cast<double>(heap.bytes) / steps, 1);
        } else {
          row.cell("n/a");
          row.cell("n/a");
        }
      }
    }
  }
  emit(t, base);
}

}  // namespace churnstore::bench
