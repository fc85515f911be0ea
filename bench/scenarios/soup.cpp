// E1 — Soup Theorem (paper Theorem 1) and E3 — walk survival (Lemma 2).
//
// Claims: with churn 4n/log^k n, there is a Core of >= n - 8n/log^{(k-1)/2} n
// nodes such that a walk from any core node ends at any core node with
// probability in [1/17n, 3/2n] after 2*tau rounds (Theorem 1); and at least
// n - 4n/log^{(k-1)/2} n source nodes lose at most a 1/log^{(k-1)/2} n
// fraction of their walks before the mixing time (Lemma 2).
//
// Measurement: inject tagged probes from every node, run them for T steps
// under churn, and report (a) per-source survival (the |S| of Lemma 2, at
// 50% and at the lemma's bound), (b) destination uniformity (min/max
// arrival probability x n, TVD), and (c) the fraction of nodes inside the
// theorem's probability band.
#include <cmath>
#include <vector>

#include "net/network.h"
#include "scenario_common.h"
#include "stats/divergence.h"
#include "walk/token_soup.h"

namespace churnstore::bench {
namespace {

struct SoupRow {
  double survival = 0.0;
  double tvd = 0.0;
  double min_pn = 0.0;
  double max_pn = 0.0;
  double core_fraction = 0.0;  ///< dest nodes inside [1/17n, 3/2n] band
  double source_good = 0.0;    ///< sources with >= 50% of probes surviving
  double source_bound = 0.0;   ///< sources meeting lemma_bound(n)
};

/// Lemma 2's per-source survival requirement 1 - 1/log^{(k-1)/2} n, k = 1.5.
double lemma_bound(std::uint32_t n) {
  return 1.0 - 1.0 / std::pow(std::log(static_cast<double>(n)), 0.25);
}

SoupRow run_once(const ScenarioSpec& spec, std::uint64_t seed,
                 std::uint32_t probes_per_node) {
  SimConfig cfg = spec.system_config().sim;
  cfg.seed = seed;
  const std::uint32_t n = cfg.n;
  Network net(cfg);
  TokenSoup soup(net, spec.walk);
  soup.set_spawning(false);  // isolate the probe measurement

  std::vector<std::uint64_t> arrivals(n, 0);
  std::vector<std::uint32_t> survived_per_source(n, 0);
  soup.set_probe_hook([&](std::uint64_t tag, Vertex d, Round) {
    ++arrivals[d];
    ++survived_per_source[tag];
  });

  net.begin_round();
  for (Vertex v = 0; v < n; ++v)
    for (std::uint32_t i = 0; i < probes_per_node; ++i)
      soup.inject_probe(v, v, soup.walk_length());
  for (std::uint32_t r = 0; r < soup.walk_length() + 2; ++r) {
    if (r > 0) net.begin_round();
    soup.step();
    net.deliver();
  }

  SoupRow row;
  const auto rep = uniformity_report(arrivals);
  const double injected = static_cast<double>(n) * probes_per_node;
  row.survival = static_cast<double>(rep.total) / injected;
  row.tvd = rep.tvd;
  row.min_pn = rep.min_prob_times_n;
  row.max_pn = rep.max_prob_times_n;

  // Theorem band: arrival probability within [1/17n, 3/2n].
  std::uint64_t in_band = 0;
  for (const auto a : arrivals) {
    const double pn = static_cast<double>(a) /
                      static_cast<double>(rep.total) * static_cast<double>(n);
    in_band += (pn >= 1.0 / 17.0 && pn <= 1.5);
  }
  row.core_fraction = static_cast<double>(in_band) / n;

  const double bound = lemma_bound(n);
  std::uint64_t good_sources = 0, bound_sources = 0;
  for (const auto s : survived_per_source) {
    good_sources += (2 * s >= probes_per_node);
    bound_sources += (static_cast<double>(s) /
                          static_cast<double>(probes_per_node) >=
                      bound);
  }
  row.source_good = static_cast<double>(good_sources) / n;
  row.source_bound = static_cast<double>(bound_sources) / n;
  return row;
}

}  // namespace

void run_soup(const ScenarioSpec& spec, const Cli& cli) {
  const std::uint32_t probes = cli_count(cli, "probes", 24);

  banner(spec, "E1+E3 soup — Soup Theorem (Thm 1), walk survival (Lemma 2)",
         "walks from a large Core land near-uniformly despite churn: "
         "min p*n >= 1/17, max p*n <= 3/2, Core ~ n - o(n); |S| = sources "
         "within the lemma's loss bound stays ~ n - o(n)");

  Runner runner(spec);
  Table t({"n", "churn/rd", "survival", "tvd", "min p*n", "max p*n",
           "band frac", "good src frac", "lemma bound", "|S|/n (>=bound)"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.0, 0.1, 0.25, spec.churn.multiplier,
                            2 * spec.churn.multiplier}) {
      const ScenarioSpec cell = at_churn(spec, n, cm);
      const auto rows = runner.map_trials<SoupRow>(
          spec.trials, [&cell, n, probes](std::uint32_t trial) {
            return run_once(cell, Runner::trial_seed(cell.seed + n, trial),
                            probes);
          });
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(trial_mean(rows, &SoupRow::survival))
          .cell(trial_mean(rows, &SoupRow::tvd))
          .cell(trial_mean(rows, &SoupRow::min_pn), 3)
          .cell(trial_mean(rows, &SoupRow::max_pn), 3)
          .cell(trial_mean(rows, &SoupRow::core_fraction), 3)
          .cell(trial_mean(rows, &SoupRow::source_good), 3)
          .cell(lemma_bound(n), 3)
          .cell(trial_mean(rows, &SoupRow::source_bound), 3);
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
