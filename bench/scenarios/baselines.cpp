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

namespace churnstore {
namespace {

using namespace churnstore::bench;

CHURNSTORE_SCENARIO(baselines,
                    "E9: paper protocol vs chord/flooding/k-walker/sqrt "
                    "baselines under churn") {
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {512};
  if (!cli.has("items")) base.workload.items = 2;
  if (!cli.has("searches")) base.workload.searchers_per_batch = 10;
  if (!cli.has("batches")) base.workload.batches = 1;
  // How long items sit under churn before anyone searches. The maintained
  // protocol is indifferent to this; the unmaintained baselines decay with
  // it — which is the paper's whole point.
  if (!cli.has("age-taus")) base.workload.age_taus = 10.0;

  banner(base, "E9 baselines — protocol comparison under churn",
         "retrieval success and per-node cost: churnstore keeps succeeding "
         "where unmaintained/structured baselines decay, at polylog cost");

  const std::vector<std::string> stacks =
      cli.has("protocol")
          ? std::vector<std::string>{base.protocol}
          : std::vector<std::string>{"churnstore", "sqrt-replication",
                                     "k-walker", "chord", "flooding"};

  Runner runner(base);
  Table t({"system", "n", "churn/rd", "locate rate", "censored", "avail",
           "avail ci95", "locate rds", "mean bits/node/rd"});
  for (const std::uint32_t n : base.ns) {
    for (const double cm : {0.0, 0.25, base.churn.multiplier,
                            2 * base.churn.multiplier}) {
      for (const std::string& stack : stacks) {
        ScenarioSpec cell = at_churn(base, n, cm).with_seed(
            mix64(base.seed + n));
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
  emit(t, base);
}

}  // namespace
}  // namespace churnstore
