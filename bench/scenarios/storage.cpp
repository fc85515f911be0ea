// E6 — Data storage persistence (paper Theorem 3).
//
// Claim: an item stored by a node is *available* (recoverable + findable
// through a Omega(sqrt n) landmark set) for a polynomial number of rounds
// under churn up to O(n/log^{1+delta} n), with only Theta(log n) copies.
//
// Measurement: availability traces across a churn sweep — fraction of
// sampled rounds where the item is recoverable/available, the number of
// live copies, committee generations completed, and when (if ever) the
// item was lost.
#include <algorithm>

#include "scenario_common.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

struct StorageRow {
  double recoverable = 0.0;
  double available = 0.0;
  double copies_mean = 0.0;
  double copies_min = 0.0;
  double generations = 0.0;
  std::int64_t lost_at = -1;
  std::uint32_t horizon = 0;
};

CHURNSTORE_SCENARIO(storage, "E6: storage persistence traces (Theorem 3)") {
  reject_obs_keys(spec.extras);
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {512};
  if (!cli.has("trials")) base.trials = 3;
  const double horizon_taus = cli.get_double("horizon-taus", 20.0);

  banner(base, "E6 storage — storage persistence (Theorem 3)",
         "availability over a long horizon vs churn; copies stay Theta(log "
         "n), the item survives every committee handover");

  Runner runner(base);
  Table t({"n", "churn/rd", "horizon rds", "recoverable", "available",
           "copies mean", "copies min", "generations", "lost@round"});
  for (const std::uint32_t n : base.ns) {
    for (const double cm : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const ScenarioSpec cell = at_churn(base, n, cm);
      const auto rows = runner.map_trials<StorageRow>(
          base.trials, [&cell, n, horizon_taus](std::uint32_t trial) {
            SystemConfig cfg = cell.system_config();
            cfg.sim.seed = Runner::trial_seed(cell.seed + n, trial);
            const auto trace = run_availability_trial(cfg, horizon_taus);
            StorageRow row;
            row.horizon =
                static_cast<std::uint32_t>(trace.rounds.size()) * 4;
            row.recoverable = trace.recoverable_fraction();
            row.available = trace.availability_fraction();
            RunningStat c;
            std::uint64_t mn = ~0ull;
            for (const auto v : trace.copies) {
              c.add(static_cast<double>(v));
              mn = std::min(mn, v);
            }
            row.copies_mean = c.mean();
            row.copies_min = static_cast<double>(mn);
            row.generations = static_cast<double>(trace.generations);
            row.lost_at = trace.first_unrecoverable();
            return row;
          });
      RunningStat reco, avail, copies_mean, copies_min, gens;
      std::int64_t lost_at = -1;
      std::uint32_t horizon = 0;
      for (const StorageRow& row : rows) {
        reco.add(row.recoverable);
        avail.add(row.available);
        copies_mean.add(row.copies_mean);
        copies_min.add(row.copies_min);
        gens.add(row.generations);
        if (row.lost_at >= 0) lost_at = row.lost_at;
        horizon = row.horizon;
      }
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(static_cast<std::int64_t>(horizon))
          .cell(reco.mean(), 3)
          .cell(avail.mean(), 3)
          .cell(copies_mean.mean(), 1)
          .cell(copies_min.mean(), 1)
          .cell(gens.mean(), 1)
          .cell(lost_at);
    }
  }
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
