// E4 — Committee maintenance (paper Theorem 2 / Corollary 2).
//
// Claim: a committee of Theta(log n) nodes, re-formed every refresh period
// by the most-sampled member, stays "good" for a long (poly(n)) time under
// churn; the failure probability per cycle is n^{-Omega(1)}.
//
// Measurement: run a committee for many refresh periods across a churn
// sweep; report survival to the horizon, generations completed, size
// statistics, and failed handovers.
#include <algorithm>
#include <vector>

#include "committee/committee.h"
#include "scenario_common.h"

namespace churnstore::bench {
namespace {

struct CommitteeRow {
  bool valid = false;
  double survived = 0.0;
  double generations = 0.0;
  double min_size = 0.0;
  double mean_size = 0.0;
  double failed = 0.0;
};

}  // namespace

void run_committee(const ScenarioSpec& spec, const Cli& cli) {
  const std::uint32_t horizon_periods = cli_count(cli, "periods", 24);

  banner(spec, "E4 committee — committee maintenance (Theorem 2)",
         "committee survival over many refresh periods vs churn; size stays "
         "Theta(log n), re-formation succeeds almost every cycle");

  Runner runner(spec);
  Table t({"n", "churn/rd", "periods", "survived", "generations",
           "min size", "mean size", "failed handovers"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const ScenarioSpec cell = at_churn(spec, n, cm);
      auto rows = runner.map_trials<CommitteeRow>(
          spec.trials, [&cell, n, horizon_periods](std::uint32_t trial) {
            SystemConfig cfg = cell.system_config();
            cfg.sim.seed = Runner::trial_seed(cell.seed + n, trial);
            P2PSystem sys(cfg);
            sys.run_rounds(sys.warmup_rounds());
            bool created = false;
            for (int i = 0; i < 20 && !created; ++i) {
              created = sys.committees().create(0, 1, Purpose::kStorage, 1,
                                                kNoPeer, {1}, -1);
              if (!created) sys.run_round();
            }
            CommitteeRow row;
            if (!created) return row;
            row.valid = true;

            RunningStat size_trace;
            std::size_t min_sz = 1u << 30;
            const std::uint32_t period = sys.committees().refresh_period();
            for (std::uint32_t p = 0; p < horizon_periods; ++p) {
              sys.run_rounds(period);
              const std::size_t sz = sys.committees().alive_members(1);
              size_trace.add(static_cast<double>(sz));
              min_sz = std::min(min_sz, sz);
              if (sz == 0) break;
            }
            row.survived = sys.committees().alive_members(1) > 0 ? 1.0 : 0.0;
            row.generations =
                static_cast<double>(sys.committees().info(1)->generations);
            row.min_size = static_cast<double>(min_sz);
            row.mean_size = size_trace.mean();
            row.failed =
                static_cast<double>(sys.metrics().committees_lost());
            return row;
          });
      // A trial whose committee never formed has nothing to average.
      std::erase_if(rows, [](const CommitteeRow& row) { return !row.valid; });
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(static_cast<std::int64_t>(horizon_periods))
          .cell(trial_mean(rows, &CommitteeRow::survived), 2)
          .cell(trial_mean(rows, &CommitteeRow::generations), 1)
          .cell(trial_mean(rows, &CommitteeRow::min_size), 1)
          .cell(trial_mean(rows, &CommitteeRow::mean_size), 1)
          .cell(trial_mean(rows, &CommitteeRow::failed), 1);
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
