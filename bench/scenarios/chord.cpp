// E14 — Chord on the Network layer: measured lookup hops, maintenance
// traffic, and ring health vs churn.
//
// Chord routes, stabilizes, and repairs through real typed Messages, so
// every column here is measured through the normal Network charge path —
// hop counts from the protocol's own counters, bits from the golden
// bit-charge accounting, maxrss from getrusage.
//
//   bench_driver --scenario=chord                      # n=1024,4096
//   bench_driver --scenario=chord n=10000,100000 json=true   # BENCH_chord
//
// Keys: chord-replication, chord-stabilize, chord-replicate, items,
// searches.
#include <cmath>
#include <optional>

#include "baseline/chord_net/chord_net.h"
#include "obs/export.h"
#include "scenario_common.h"
#include "stats/histogram.h"
#include "util/resource.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

struct ChordCell {
  std::uint64_t searches = 0;
  std::uint64_t censored = 0;
  std::uint64_t ok = 0;
  double mean_hops = 0.0;
  std::uint64_t max_hops = 0;
  double availability = 0.0;
  /// Ring god views and traffic.
  double joined_fraction = 0.0;
  double consistency = 0.0;
  double bits_node_round = 0.0;
  double locate_rounds = 0.0;
  /// Hop-count distribution over successful lookups (protocol histogram)
  /// and lookup-latency distribution in rounds (scenario-side histogram
  /// over located searches); < 0 = no mass.
  double hops_p50 = -1.0;
  double hops_p95 = -1.0;
  double hops_p99 = -1.0;
  double lat_p50 = -1.0;
  double lat_p95 = -1.0;
  double lat_p99 = -1.0;
  double lat_p999 = -1.0;
};

/// One measured cell: build the chord stack, run the store -> age -> search
/// workload through the StorageService facade, and read the protocol's own
/// counters for the hop/health columns.
ChordCell run_cell(const ScenarioSpec& spec, const std::string& obs_label) {
  ScenarioSpec cell = spec;
  cell.protocol = "chord";
  BuiltSystem built =
      build_stack(cell.protocol, cell.system_config(), cell.extras);
  P2PSystem& sys = *built.system;
  StorageService& svc = *built.service;

  // obs=jsonl|chrome attaches a per-cell exporter session; each cell gets
  // its own labelled file. Declared after `built` so the session (whose
  // trace lanes borrow the network's shard arenas) dies first.
  ObsConfig obs = obs_config_from_extras(cell.extras);
  std::optional<ObsSession> session;
  if (obs.mode != ObsConfig::Mode::kNone) {
    if (obs.path.empty()) {
      obs.path = obs.mode == ObsConfig::Mode::kJsonl ? "obs.jsonl"
                                                     : "obs_trace.json";
    }
    obs.path = obs_path_with_label(obs.path, obs_label);
    session.emplace(sys, obs);
  }

  Rng workload(mix64(cell.seed ^ 0x776f726bULL));
  sys.run_rounds(sys.warmup_rounds());

  std::vector<ItemId> items;
  for (std::uint32_t i = 0; i < cell.workload.items; ++i) {
    const ItemId item = mix64(cell.seed * 1000 + i) | 1;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto creator = static_cast<Vertex>(workload.next_below(sys.n()));
      if (svc.try_store(creator, item)) {
        items.push_back(item);
        break;
      }
      sys.run_round();
    }
  }
  sys.run_rounds(
      static_cast<std::uint32_t>(cell.workload.age_taus * sys.tau()));

  ChordCell out;
  std::uint64_t avail = 0;
  for (const ItemId item : items) avail += svc.is_available(item);
  out.availability = items.empty() ? 0.0
                                   : static_cast<double>(avail) /
                                         static_cast<double>(items.size());

  std::vector<std::uint64_t> sids;
  const Round start = sys.round();
  for (std::uint32_t s = 0; s < cell.workload.searchers_per_batch; ++s) {
    if (items.empty()) break;
    const ItemId item = items[workload.next_below(items.size())];
    const auto initiator = static_cast<Vertex>(workload.next_below(sys.n()));
    sids.push_back(svc.begin_search(initiator, item));
  }
  sys.run_rounds(svc.search_timeout() + 4);

  RunningStat locate;
  Histogram latency(0.0, 256.0, 256);
  for (const std::uint64_t sid : sids) {
    const WorkloadOutcome o = svc.search_outcome(sid);
    ++out.searches;
    if (o.censored && !o.located) {
      ++out.censored;
      continue;
    }
    if (o.located) {
      ++out.ok;
      const auto rounds = static_cast<double>(o.located_round - start);
      locate.add(rounds);
      latency.add(rounds);
    }
  }
  out.locate_rounds = locate.count() ? locate.mean() : 0.0;
  if (latency.total() > 0) {
    out.lat_p50 = latency.quantile(0.50);
    out.lat_p95 = latency.quantile(0.95);
    out.lat_p99 = latency.quantile(0.99);
    out.lat_p999 = latency.quantile(0.999);
  }

  const auto& chord = *sys.find_protocol<ChordNetProtocol>();
  const auto& st = chord.stats();
  out.mean_hops = st.mean_hops();
  out.max_hops = st.ok_hops_max;
  out.joined_fraction = static_cast<double>(chord.joined_count()) /
                        static_cast<double>(sys.n());
  out.consistency = chord.ring_consistency();
  out.bits_node_round = sys.metrics().mean_bits_per_node_round().mean();
  if (st.ok_hops.total() > 0) {
    out.hops_p50 = st.ok_hops.quantile(0.50);
    out.hops_p95 = st.ok_hops.quantile(0.95);
    out.hops_p99 = st.ok_hops.quantile(0.99);
  }
  return out;
}

CHURNSTORE_SCENARIO(chord,
                    "E14: message-accurate Chord — measured hops, bits, and "
                    "ring health vs churn") {
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {1024, 4096};
  if (!cli.has("trials")) base.trials = 1;
  if (!cli.has("items")) base.workload.items = 8;
  if (!cli.has("searches")) base.workload.searchers_per_batch = 24;
  if (!cli.has("age-taus")) base.workload.age_taus = 2.0;

  banner(base, "E14 chord — message-accurate Chord DHT on the Network layer",
         "lookup success and MEASURED hop/bit cost via the normal charge "
         "path");

  // New observability columns are APPENDED so downstream consumers of the
  // historical BENCH_chord.json column set keep their positions.
  Table t({"n", "churn/rd", "searches", "censored", "ok rate", "avail",
           "mean hops", "max hops", "hops/log2 n", "joined", "succ consist",
           "mean bits/node/rd", "locate rds", "maxrss MB", "hops p50",
           "hops p95", "hops p99", "lat p50", "lat p95", "lat p99",
           "lat p999"});
  for (const std::uint32_t n : base.ns) {
    for (const double cm : {0.0, 0.25 * base.churn.multiplier,
                            0.5 * base.churn.multiplier,
                            base.churn.multiplier}) {
      const ScenarioSpec cell =
          at_churn(base, n, cm).with_seed(mix64(base.seed + n));
      const std::string obs_label =
          "net.n" + std::to_string(n) + ".c" +
          std::to_string(static_cast<std::int64_t>(cell.churn.per_round(n)));
      const ChordCell res = run_cell(cell, obs_label);
      const double log2n = std::log2(static_cast<double>(n));
      const std::uint64_t eligible = res.searches - res.censored;
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(res.searches)
          .cell(res.censored)
          .cell(eligible ? static_cast<double>(res.ok) /
                               static_cast<double>(eligible)
                         : 0.0,
                3)
          .cell(res.availability, 3)
          .cell(res.mean_hops, 2)
          .cell(res.max_hops)
          .cell(res.mean_hops / log2n, 2)
          .cell(res.joined_fraction, 3)
          .cell(res.consistency, 3)
          .cell(res.bits_node_round, 0)
          .cell(res.locate_rounds, 1)
          .cell(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                1);
      // Quantile columns: "n/a" when the histogram has no mass (no
      // successful lookups).
      const auto quant = [&t](double v, int precision) {
        if (v < 0.0) {
          t.cell("n/a");
        } else {
          t.cell(v, precision);
        }
      };
      quant(res.hops_p50, 1);
      quant(res.hops_p95, 1);
      quant(res.hops_p99, 1);
      quant(res.lat_p50, 1);
      quant(res.lat_p95, 1);
      quant(res.lat_p99, 1);
      quant(res.lat_p999, 1);
    }
  }
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
