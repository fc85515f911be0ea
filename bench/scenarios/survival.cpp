// E3 — Walk survival under churn (paper Lemma 2).
//
// Claim: with churn 4n/log^k n per round, at least n - 4n/log^{(k-1)/2} n
// source nodes lose at most a 1/log^{(k-1)/2} n fraction of their walks
// before the mixing time.
//
// Measurement: per-source walk survival across a churn sweep; report the
// mean survival rate and the fraction of sources meeting the lemma's
// per-source survival bound.
#include <cmath>
#include <vector>

#include "net/network.h"
#include "scenario_common.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

struct SurvivalRow {
  double survival = 0.0;
  double frac_bound = 0.0;
  double frac_half = 0.0;
};

CHURNSTORE_SCENARIO(survival, "E3: walk survival under churn (Lemma 2)") {
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {256, 512, 1024, 2048};
  const std::uint32_t probes = cli_count(cli, "probes", 24);

  banner(base, "E3 survival — walk survival (Lemma 2)",
         "fraction of walks surviving to the mixing time vs churn; |S| = "
         "sources within the lemma's loss bound stays ~ n - o(n)");

  Runner runner(base);
  Table t(
      {"n", "churn/rd", "churn frac", "mean survival", "lemma bound",
       "|S|/n (>=bound)", "|S|/n (>=50%)"});
  for (const std::uint32_t n : base.ns) {
    const double ln_n = std::log(static_cast<double>(n));
    // Lemma's per-source survival requirement: 1 - 1/log^{(k-1)/2} n.
    const double lemma_bound = 1.0 - 1.0 / std::pow(ln_n, 0.25);
    for (const double cm : {0.1, 0.25, 0.5, 1.0}) {
      const ScenarioSpec cell = at_churn(base, n, cm);
      const auto rows = runner.map_trials<SurvivalRow>(
          base.trials,
          [&cell, n, probes, lemma_bound](std::uint32_t trial) {
            SimConfig cfg = cell.system_config().sim;
            cfg.seed = Runner::trial_seed(cell.seed + n, trial);
            Network net(cfg);
            TokenSoup soup(net, cell.walk);
            soup.set_spawning(false);
            std::vector<std::uint32_t> ok(n, 0);
            soup.set_probe_hook(
                [&](std::uint64_t tag, Vertex, Round) { ++ok[tag]; });
            net.begin_round();
            for (Vertex v = 0; v < n; ++v)
              for (std::uint32_t i = 0; i < probes; ++i)
                soup.inject_probe(v, v, soup.walk_length());
            for (std::uint32_t r = 0; r < soup.walk_length() + 2; ++r) {
              if (r > 0) net.begin_round();
              soup.step();
              net.deliver();
            }
            std::uint64_t total = 0, meets_bound = 0, meets_half = 0;
            for (const auto s : ok) {
              total += s;
              const double rate =
                  static_cast<double>(s) / static_cast<double>(probes);
              meets_bound += (rate >= lemma_bound);
              meets_half += (rate >= 0.5);
            }
            SurvivalRow row;
            row.survival = static_cast<double>(total) /
                           (static_cast<double>(n) * probes);
            row.frac_bound = static_cast<double>(meets_bound) / n;
            row.frac_half = static_cast<double>(meets_half) / n;
            return row;
          });
      RunningStat survival, frac_bound, frac_half;
      for (const SurvivalRow& row : rows) {
        survival.add(row.survival);
        frac_bound.add(row.frac_bound);
        frac_half.add(row.frac_half);
      }
      const std::uint32_t churn_rd = cell.churn.per_round(n);
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(churn_rd))
          .cell(static_cast<double>(churn_rd) / n, 4)
          .cell(survival.mean())
          .cell(lemma_bound, 3)
          .cell(frac_bound.mean(), 3)
          .cell(frac_half.mean(), 3);
    }
  }
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
