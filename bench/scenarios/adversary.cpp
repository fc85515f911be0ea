// E12 — Adversary-strategy ablation (the oblivious adversary of section 2).
//
// The analysis only needs the adversary to be oblivious to protocol coins;
// it may otherwise churn whatever it likes. Panel 1 runs the same storage
// workload against every implemented oblivious strategy — uniform
// replacement, contiguous block sweeps, a hammered fixed region, and
// lifetime-targeted (oldest/youngest-first) — and shows the guarantees are
// strategy-independent (random placement makes all oblivious choices look
// alike). Panel 2 flips the one switch the model forbids: an ADAPTIVE
// adversary whose targeter (Network::set_adaptive_targeter) churns exactly
// the current committee members.
#include "scenario_common.h"

namespace churnstore::bench {
namespace {

struct StrategyRow {
  double recoverable = 0.0;
  double available = 0.0;
  double locate = 0.0;
  double fetch = 0.0;
};

}  // namespace

void run_adversary(const ScenarioSpec& spec, const Cli&) {
  banner(spec, "E12 adversary — oblivious strategy ablation",
         "same churn volume, different victim-selection strategies: the "
         "random placement of committees/landmarks equalizes them all");

  Runner runner(spec);
  Table t({"adversary", "n", "churn/rd", "recoverable", "available",
           "locate rate", "fetch rate"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm :
         {0.5 * spec.churn.multiplier, spec.churn.multiplier}) {
      for (const AdversaryKind kind :
           {AdversaryKind::kUniform, AdversaryKind::kBlockSweep,
            AdversaryKind::kRegionRepeat, AdversaryKind::kOldestFirst,
            AdversaryKind::kYoungestFirst}) {
        ScenarioSpec cell = at_churn(spec, n, cm);
        cell.churn.kind = kind;
        const auto rows = runner.map_trials<StrategyRow>(
            spec.trials, [&cell, n](std::uint32_t trial) {
              const ScenarioSpec trial_spec =
                  cell.with_seed(Runner::trial_seed(cell.seed + n, trial));
              StrategyRow row;
              const auto trace =
                  run_availability_trial(trial_spec.system_config(), 8.0);
              row.recoverable = trace.recoverable_fraction();
              row.available = trace.availability_fraction();
              const auto res = run_store_search_trial(trial_spec);
              row.locate = res.locate_rate();
              row.fetch = res.fetch_rate();
              return row;
            });
        t.begin_row()
            .cell(std::string(to_name(kind)))
            .cell(static_cast<std::int64_t>(n))
            .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
            .cell(trial_mean(rows, &StrategyRow::recoverable), 3)
            .cell(trial_mean(rows, &StrategyRow::available), 3)
            .cell(trial_mean(rows, &StrategyRow::locate), 3)
            .cell(trial_mean(rows, &StrategyRow::fetch), 3);
      }
    }
  }
  emit(t, spec);

  // Second panel: what obliviousness buys. Same churn VOLUME, but the
  // adversary is allowed to see committee membership (model violation).
  if (!spec.csv && !spec.json) {
    std::printf(
        "\n-- adaptive (non-oblivious) adversary, same churn volume --\n");
  }
  Table t2({"adversary", "n", "churn/rd", "recoverable after 8 taus"});
  for (const std::uint32_t n : spec.ns) {
    for (const bool adaptive : {false, true}) {
      ScenarioSpec cell =
          at_churn(spec, n, 0.5 * spec.churn.multiplier);
      if (adaptive) cell.churn.kind = AdversaryKind::kAdaptive;
      const auto rows = runner.map_trials<double>(
          spec.trials, [&cell, n, adaptive](std::uint32_t trial) {
            SystemConfig cfg = cell.system_config();
            cfg.sim.seed = Runner::trial_seed(cell.seed + n, trial);
            P2PSystem sys(cfg);
            if (adaptive) sys.enable_adaptive_adversary();
            sys.run_rounds(sys.warmup_rounds());
            for (int i = 0; i < 20 && !sys.store_item(0, 1); ++i)
              sys.run_round();
            sys.run_rounds(8 * sys.tau());
            return sys.searches().is_recoverable(1) ? 1.0 : 0.0;
          });
      t2.begin_row()
          .cell(adaptive ? "ADAPTIVE (sees committees)" : "oblivious uniform")
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(trial_mean(rows), 2);
    }
  }
  emit(t2, spec);
}

}  // namespace churnstore::bench
