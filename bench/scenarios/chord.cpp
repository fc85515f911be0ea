// E14 — Chord on the Network layer: measured lookup hops, maintenance
// traffic, and ring health vs churn.
//
// Chord routes, stabilizes, and repairs through real typed Messages, so
// every column here is measured through the normal Network charge path —
// hop counts from the protocol's own counters, bits from the golden
// bit-charge accounting, maxrss from getrusage. Each cell runs the shared
// store -> age -> search driver (drive_store_search), so success, censoring
// and latency follow the same rule as every other stack.
//
//   bench_driver --scenario=chord                      # n=1024,4096
//   bench_driver --scenario=chord n=10000,100000 json=true   # BENCH_chord
//
// Keys: items, searches, age-taus (taus of aging beyond the driver's fixed
// 2 tau) and batches, at the defaults `bench_driver --list` shows; Chord
// itself runs at the stack builder's constants. trials must be 1: each
// cell is one run.
#include <cmath>
#include <optional>

#include "baseline/chord_net/chord_net.h"
#include "obs/export.h"
#include "scenario_common.h"
#include "stats/histogram.h"
#include "util/resource.h"

namespace churnstore::bench {
namespace {

/// One measured cell: the generic workload's result plus the protocol's
/// own hop counters and ring god views.
struct ChordCell {
  StoreSearchResult workload;
  ChordNetProtocol::LookupStats hops;
  double joined_fraction = 0.0;
  double consistency = 0.0;
};

/// Build the chord stack, run the one store -> age -> search workload
/// (drive_store_search) through its StorageService facade, and read the
/// protocol's own counters for the hop/health columns.
ChordCell run_cell(const ScenarioSpec& spec, const std::string& obs_label) {
  ScenarioSpec cell = spec;
  cell.protocol = "chord";
  BuiltSystem built =
      build_stack(cell.protocol, cell.system_config(), cell.extras);
  P2PSystem& sys = *built.system;

  // obs=jsonl|chrome attaches a per-cell exporter session; each cell gets
  // its own labelled file. Declared after `built` so the session (whose
  // trace lanes borrow the network's shard arenas) dies first.
  const std::optional<ObsSession> session =
      attach_obs_session(sys, cell.extras, obs_label);

  ChordCell out;
  out.workload =
      drive_store_search(sys, *built.service, cell.workload, cell.seed);
  const auto& chord = *sys.find_protocol<ChordNetProtocol>();
  out.hops = chord.stats();
  out.joined_fraction = static_cast<double>(chord.joined_count()) /
                        static_cast<double>(sys.n());
  out.consistency = chord.ring_consistency();
  return out;
}

}  // namespace

void run_chord(const ScenarioSpec& spec, const Cli& cli) {
  // One cell per (n, churn level) and no trial axis: any other trials value
  // would print this one-trial table as if it had been honoured.
  if (cli.has("trials")) require_exactly("trials", spec.trials, 1);

  banner(spec, "E14 chord — message-accurate Chord DHT on the Network layer",
         "lookup success and MEASURED hop/bit cost via the normal charge "
         "path");

  // New observability columns are APPENDED so downstream consumers of the
  // historical BENCH_chord.json column set keep their positions.
  Table t({"n", "churn/rd", "searches", "censored", "ok rate", "avail",
           "mean hops", "max hops", "hops/log2 n", "joined", "succ consist",
           "mean bits/node/rd", "locate rds", "maxrss MB", "hops p50",
           "hops p95", "hops p99", "lat p50", "lat p95", "lat p99",
           "lat p999"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.0, 0.25 * spec.churn.multiplier,
                            0.5 * spec.churn.multiplier,
                            spec.churn.multiplier}) {
      const ScenarioSpec cell =
          at_churn(spec, n, cm).with_seed(mix64(spec.seed + n));
      const std::string obs_label =
          "net.n" + std::to_string(n) + ".c" +
          std::to_string(static_cast<std::int64_t>(cell.churn.per_round(n)));
      const ChordCell res = run_cell(cell, obs_label);
      const StoreSearchResult& w = res.workload;
      const double log2n = std::log2(static_cast<double>(n));
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(w.searches)
          .cell(w.censored)
          .cell(w.locate_rate(), 3)
          .cell(w.availability.mean(), 3)
          .cell(res.hops.mean_hops(), 2)
          .cell(res.hops.ok_hops_max)
          .cell(res.hops.mean_hops() / log2n, 2)
          .cell(res.joined_fraction, 3)
          .cell(res.consistency, 3)
          .cell(w.bits_node_round_mean.mean(), 0)
          .cell(w.locate_rounds.mean(), 1)
          .cell(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                1);
      // Hop quantiles over successful lookups, then locate-latency
      // quantiles in rounds; "n/a" when nothing succeeded.
      const auto quant = [&t](const Histogram& h, double q) {
        if (h.total() == 0) {
          t.cell("n/a");
        } else {
          t.cell(h.quantile(q), 1);
        }
      };
      for (const double q : {0.50, 0.95, 0.99}) quant(res.hops.ok_hops, q);
      for (const double q : {0.50, 0.95, 0.99, 0.999}) quant(w.locate_hist, q);
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
