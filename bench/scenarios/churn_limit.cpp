// E11 — How much churn can the random-walk approach absorb? (paper
// section 5 conjecture: a fundamental limit at o(n/log n) churn per round,
// because Omega(n/log n) churn destroys a constant fraction of walks before
// they mix.)
//
// Measurement: sweep the churn multiplier in BOTH functional forms —
// c * n / ln^{1.5} n (the paper's tolerated rate) and c * n / ln n (the
// conjectured wall) — and watch walk survival, storage persistence, and
// search success collapse as churn-per-mixing-time approaches 1.
#include <algorithm>
#include <cmath>

#include "scenario_common.h"

namespace churnstore::bench {
namespace {

struct LimitRow {
  double walk_survival = 0.0;
  double persist = 0.0;
  double locate_rate = 0.0;
};

LimitRow run_once(const ScenarioSpec& spec, std::int64_t churn_abs,
                  std::uint64_t seed) {
  SystemConfig cfg = spec.system_config();
  cfg.sim.seed = seed;
  cfg.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  cfg.sim.churn.absolute = churn_abs;
  LimitRow row;

  P2PSystem sys(cfg);
  sys.run_rounds(sys.warmup_rounds());
  const auto& m = sys.metrics();
  const double denom =
      static_cast<double>(m.tokens_completed() + m.tokens_lost());
  row.walk_survival =
      denom > 0 ? static_cast<double>(m.tokens_completed()) / denom : 0.0;

  const ItemId item = 0x117;
  for (int i = 0; i < 20 && !sys.store_item(3, item); ++i) sys.run_round();
  sys.run_rounds(4 * sys.committees().refresh_period());
  row.persist = sys.searches().is_recoverable(item) ? 1.0 : 0.0;

  Rng rng(seed ^ 9);
  std::uint32_t ok = 0, eligible = 0;
  std::vector<std::uint64_t> sids;
  for (int s = 0; s < 6; ++s) {
    sids.push_back(
        sys.search(static_cast<Vertex>(rng.next_below(sys.n())), item));
  }
  sys.run_rounds(sys.search_timeout() + 2);
  for (const auto sid : sids) {
    const WorkloadOutcome out = sys.searches().search_outcome(sid);
    if (out.censored) continue;
    ++eligible;
    ok += out.located;
  }
  row.locate_rate = eligible ? static_cast<double>(ok) / eligible : 0.0;
  return row;
}

}  // namespace

void run_churn_limit(const ScenarioSpec& spec, const Cli&) {
  banner(spec, "E11 churn_limit — the churn wall (section 5 conjecture)",
         "sweep churn in both functional forms; the protocol degrades as "
         "the per-mixing-time churn fraction approaches a constant "
         "(conjectured wall at Omega(n/log n) per round)");

  Runner runner(spec);
  Table t({"form", "c", "churn/rd", "frac/rd", "frac/tau", "walk survival",
           "persisted", "locate rate"});
  for (const std::uint32_t n : spec.ns) {
    const double ln_n = std::log(static_cast<double>(n));
    const std::uint32_t tau = tau_rounds(n, spec.walk);
    const ScenarioSpec cell = spec.with_n(n);
    auto sweep = [&](const char* form, double divisor, double c) {
      const auto churn =
          static_cast<std::int64_t>(c * static_cast<double>(n) / divisor);
      const auto rows = runner.map_trials<LimitRow>(
          spec.trials, [&cell, churn, n](std::uint32_t trial) {
            return run_once(cell, churn,
                            Runner::trial_seed(cell.seed + n, trial));
          });
      const double frac = static_cast<double>(churn) / n;
      t.begin_row()
          .cell(form)
          .cell(c, 2)
          .cell(churn)
          .cell(frac, 4)
          .cell(std::min(1.0, frac * tau), 3)
          .cell(trial_mean(rows, &LimitRow::walk_survival), 3)
          .cell(trial_mean(rows, &LimitRow::persist), 2)
          .cell(trial_mean(rows, &LimitRow::locate_rate), 3);
    };
    for (const double c : {0.25, 0.5, 1.0, 1.5, 2.0}) {
      sweep("n/ln^1.5 n", std::pow(ln_n, 1.5), c);
    }
    for (const double c : {0.1, 0.2, 0.3, 0.5}) {
      sweep("n/ln n", ln_n, c);
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
