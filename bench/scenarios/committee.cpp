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

#include "committee/committee.h"
#include "scenario_common.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

struct CommitteeRow {
  bool valid = false;
  double survived = 0.0;
  double generations = 0.0;
  double min_size = 0.0;
  double mean_size = 0.0;
  double failed = 0.0;
};

CHURNSTORE_SCENARIO(committee, "E4: committee maintenance (Theorem 2)") {
  reject_obs_keys(spec.extras);
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {512};
  if (!cli.has("trials")) base.trials = 3;
  const std::uint32_t horizon_periods = cli_count(cli, "periods", 24);

  banner(base, "E4 committee — committee maintenance (Theorem 2)",
         "committee survival over many refresh periods vs churn; size stays "
         "Theta(log n), re-formation succeeds almost every cycle");

  Runner runner(base);
  Table t({"n", "churn/rd", "periods", "survived", "generations",
           "min size", "mean size", "failed handovers"});
  for (const std::uint32_t n : base.ns) {
    for (const double cm : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const ScenarioSpec cell = at_churn(base, n, cm);
      const auto rows = runner.map_trials<CommitteeRow>(
          base.trials, [&cell, n, horizon_periods](std::uint32_t trial) {
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
      RunningStat survived, gens, min_size, mean_size, failed;
      for (const CommitteeRow& row : rows) {
        if (!row.valid) continue;
        survived.add(row.survived);
        gens.add(row.generations);
        min_size.add(row.min_size);
        mean_size.add(row.mean_size);
        failed.add(row.failed);
      }
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(static_cast<std::int64_t>(horizon_periods))
          .cell(survived.mean(), 2)
          .cell(gens.mean(), 1)
          .cell(min_size.mean(), 1)
          .cell(mean_size.mean(), 1)
          .cell(failed.mean(), 1);
    }
  }
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
