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

namespace churnstore::bench {
namespace {

struct StorageRow {
  double recoverable = 0.0;
  double available = 0.0;
  double copies_mean = 0.0;
  double copies_min = 0.0;
  double generations = 0.0;
  std::int64_t lost_at = -1;
  std::uint32_t horizon = 0;
};

}  // namespace

void run_storage(const ScenarioSpec& spec, const Cli& cli) {
  const double horizon_taus = cli.get_double("horizon-taus", 20.0);

  banner(spec, "E6 storage — storage persistence (Theorem 3)",
         "availability over a long horizon vs churn; copies stay Theta(log "
         "n), the item survives every committee handover");

  Runner runner(spec);
  Table t({"n", "churn/rd", "horizon rds", "recoverable", "available",
           "copies mean", "copies min", "generations", "lost@round"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const ScenarioSpec cell = at_churn(spec, n, cm);
      const auto rows = runner.map_trials<StorageRow>(
          spec.trials, [&cell, n, horizon_taus](std::uint32_t trial) {
            SystemConfig cfg = cell.system_config();
            cfg.sim.seed = Runner::trial_seed(cell.seed + n, trial);
            const auto trace = run_availability_trial(cfg, horizon_taus);
            StorageRow row;
            row.horizon = static_cast<std::uint32_t>(trace.rounds.size()) *
                          kAvailabilitySampleRounds;
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
      // The last trial that lost its item names the round.
      std::int64_t lost_at = -1;
      for (const StorageRow& row : rows) {
        if (row.lost_at >= 0) lost_at = row.lost_at;
      }
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(static_cast<std::int64_t>(rows.back().horizon))
          .cell(trial_mean(rows, &StorageRow::recoverable), 3)
          .cell(trial_mean(rows, &StorageRow::available), 3)
          .cell(trial_mean(rows, &StorageRow::copies_mean), 1)
          .cell(trial_mean(rows, &StorageRow::copies_min), 1)
          .cell(trial_mean(rows, &StorageRow::generations), 1)
          .cell(lost_at);
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
