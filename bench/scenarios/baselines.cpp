// E9 — churnstore vs the baselines (paper section 4 paragraph 1 and the
// related-work comparisons).
//
//   flooding          — persists trivially but costs Theta(d * |I|) bits per
//                       node per round (the scalability failure);
//   sqrt-replication  — birthday-paradox placement with no maintenance:
//                       availability decays with churn exposure;
//   k-walker          — unstructured walk search over an unmaintained
//                       replica set: walkers AND replicas die under churn;
//   chord             — structured DHT with periodic stabilization: loses
//                       data outright once churn outruns the repair period;
//   churnstore        — committee-maintained storage + landmark search.
//
// Every system is a registered protocol stack behind the same
// StorageService facade, so this scenario is nothing but the SAME
// store -> age -> search workload re-run with a different `protocol=` value
// per row — the comparison the old bespoke bench hand-rolled per baseline.
#include "scenario_common.h"

namespace churnstore::bench {

void run_baselines(const ScenarioSpec& spec, const Cli& cli) {
  banner(spec, "E9 baselines — protocol comparison under churn",
         "retrieval success and per-node cost: churnstore keeps succeeding "
         "where unmaintained/structured baselines decay, at polylog cost");

  const std::vector<std::string> stacks =
      cli.has("protocol")
          ? std::vector<std::string>{spec.protocol}
          : std::vector<std::string>{"churnstore", "sqrt-replication",
                                     "k-walker", "chord", "flooding"};

  Runner runner(spec);
  Table t({"system", "n", "churn/rd", "locate rate", "censored", "avail",
           "avail ci95", "locate rds", "mean bits/node/rd"});
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.0, 0.25, spec.churn.multiplier,
                            2 * spec.churn.multiplier}) {
      for (const std::string& stack : stacks) {
        ScenarioSpec cell = at_churn(spec, n, cm).with_seed(
            mix64(spec.seed + n));
        cell.protocol = stack;
        const StoreSearchResult res = runner.store_search(cell);
        t.begin_row()
            .cell(stack)
            .cell(static_cast<std::int64_t>(n))
            .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
            .cell(res.locate_rate(), 3)
            .cell(res.censored)
            .cell(res.availability.mean(), 3)
            .cell(res.availability.ci95_halfwidth(), 3)
            .cell(res.locate_rounds.count() ? res.locate_rounds.mean() : 0.0,
                  1)
            .cell(res.bits_node_round_mean.mean(), 0);
      }
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
