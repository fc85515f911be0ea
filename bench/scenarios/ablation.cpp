// E13 — Design ablations around the paper's constants.
//
// Sweeps the protocol constants around the paper's choices (README's
// scenario catalog, E13): committee refresh period (paper: every 2 tau),
// invitation oversampling (our finite-n compensation for sample
// staleness), landmark tree fanout (paper: 2) and TTL (paper: 2 tau), and
// walk length. Each row reports item persistence, search success, and the
// per-node traffic the setting costs.
#include "scenario_common.h"

namespace churnstore::bench {
namespace {

struct AblationResult {
  double persist = 0.0;
  double locate = 0.0;
  double bits = 0.0;
};

/// `trials` trials of `cell` (seeded from cell.seed): each measures the
/// item's persistence over 10 taus and runs the store -> search workload.
AblationResult run(Runner& runner, const ScenarioSpec& cell) {
  const auto rows = runner.map_trials<AblationResult>(
      cell.trials, [&cell](std::uint32_t trial) {
        const ScenarioSpec trial_spec =
            cell.with_seed(Runner::trial_seed(cell.seed, trial));
        AblationResult row;
        const auto trace =
            run_availability_trial(trial_spec.system_config(), 10.0);
        row.persist = trace.recoverable_fraction();
        const auto res = run_store_search_trial(trial_spec);
        row.locate = res.locate_rate();
        row.bits = res.bits_node_round_mean.mean();
        return row;
      });
  return AblationResult{trial_mean(rows, &AblationResult::persist),
                        trial_mean(rows, &AblationResult::locate),
                        trial_mean(rows, &AblationResult::bits)};
}

}  // namespace

void run_ablation(const ScenarioSpec& spec, const Cli&) {
  // Every knob is a paper-stack constant (the driver pins protocol=): the
  // cells store and search on that stack, at the first n.
  ScenarioSpec base = spec;
  base.ns = {base.n()};

  banner(base, "E13 ablation — design-choice sweeps",
         "persistence / search success / cost as each protocol constant "
         "moves around the paper's choice");

  Runner runner(base);
  Table t({"knob", "value", "recoverable", "locate rate",
           "mean bits/node/rd"});
  for (const double v : {0.5, 1.0, 2.0}) {
    ScenarioSpec cell = base.with_seed(base.seed + 1);
    cell.protocol_config.refresh_taus = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("refresh period (taus)").cell(v, 1).cell(r.persist, 3)
        .cell(r.locate, 3).cell(r.bits, 0);
  }
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    ScenarioSpec cell = base.with_seed(base.seed + 2);
    cell.protocol_config.invite_oversample = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("invite oversample").cell(v, 1).cell(r.persist, 3)
        .cell(r.locate, 3).cell(r.bits, 0);
  }
  for (const std::uint32_t v : {2u, 3u, 4u}) {
    ScenarioSpec cell = base.with_seed(base.seed + 3);
    cell.protocol_config.tree_fanout = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("tree fanout").cell(static_cast<std::int64_t>(v))
        .cell(r.persist, 3).cell(r.locate, 3).cell(r.bits, 0);
  }
  for (const double v : {1.0, 2.0, 3.0}) {
    ScenarioSpec cell = base.with_seed(base.seed + 4);
    cell.protocol_config.landmark_ttl_taus = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("landmark TTL (taus)").cell(v, 1).cell(r.persist, 3)
        .cell(r.locate, 3).cell(r.bits, 0);
  }
  for (const double v : {2.0, 2.5, 3.0}) {
    ScenarioSpec cell = base.with_seed(base.seed + 5);
    cell.walk.t_mult = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("walk length (x ln n)").cell(v, 1).cell(r.persist, 3)
        .cell(r.locate, 3).cell(r.bits, 0);
  }
  for (const double v : {1.0, 1.5, 2.5}) {
    ScenarioSpec cell = base.with_seed(base.seed + 6);
    cell.walk.rate_mult = v;
    const auto r = run(runner, cell);
    t.begin_row().cell("walk rate (x ln n)").cell(v, 1).cell(r.persist, 3)
        .cell(r.locate, 3).cell(r.bits, 0);
  }
  emit(t, base);
}

}  // namespace churnstore::bench
