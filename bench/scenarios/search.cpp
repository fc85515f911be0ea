// E7 — Data retrieval (paper Theorem 4).
//
// Claim: n - o(n) nodes can retrieve an available item within O(log n)
// rounds under churn up to O(n/log^{1+delta} n).
//
// Measurement: searches from random initiators across an (n x churn) grid;
// report locate/fetch success among nodes that stayed alive, censoring, and
// the locate-time distribution. The locate time should scale like ln n
// (log-log slope vs ln n near 1, i.e. O(log n) rounds).
#include <cmath>

#include "scenario_common.h"
#include "stats/summary.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

CHURNSTORE_SCENARIO(search, "E7: retrieval success and latency (Theorem 4)") {
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {256, 512, 1024};
  if (!cli.has("items")) base.workload.items = 3;
  if (!cli.has("searches")) base.workload.searchers_per_batch = 12;

  banner(base, "E7 search — retrieval success and latency (Theorem 4)",
         "locate/fetch rates among surviving searchers and rounds-to-locate "
         "vs n and churn; latency grows like log n, success stays ~1");

  Runner runner(base);
  // Tail-latency quantiles appended after the historical columns (same
  // observations as "locate rds mean", full distribution via locate_hist).
  Table t({"n", "churn/rd", "searches", "censored", "locate rate",
           "fetch rate", "avail", "avail ci95", "locate rds mean",
           "locate rds max", "tau", "lat p50", "lat p95", "lat p99",
           "lat p999"});
  std::vector<double> lnns, latencies;
  for (const std::uint32_t n : base.ns) {
    for (const double cm :
         {0.0, base.churn.multiplier, 2 * base.churn.multiplier}) {
      ScenarioSpec cell = at_churn(base, n, cm).with_seed(base.seed + n);
      const StoreSearchResult res = runner.store_search(cell);
      const std::uint32_t tau = tau_rounds(n, cell.walk);
      t.begin_row()
          .cell(static_cast<std::int64_t>(n))
          .cell(static_cast<std::int64_t>(cell.churn.per_round(n)))
          .cell(res.searches)
          .cell(res.censored)
          .cell(res.locate_rate(), 3)
          .cell(res.fetch_rate(), 3)
          .cell(res.availability.mean(), 3)
          .cell(res.availability.ci95_halfwidth(), 3)
          .cell(res.locate_rounds.mean(), 1)
          .cell(res.locate_rounds.max(), 1)
          .cell(static_cast<std::int64_t>(tau));
      if (res.locate_hist.total() > 0) {
        t.cell(res.locate_hist.quantile(0.50), 1)
            .cell(res.locate_hist.quantile(0.95), 1)
            .cell(res.locate_hist.quantile(0.99), 1)
            .cell(res.locate_hist.quantile(0.999), 1);
      } else {
        t.cell("n/a").cell("n/a").cell("n/a").cell("n/a");
      }
      if (cm == base.churn.multiplier && res.locate_rounds.count() > 0) {
        lnns.push_back(std::log(static_cast<double>(n)));
        latencies.push_back(res.locate_rounds.mean());
      }
    }
  }
  emit(t, base);
  if (!base.csv && !base.json) {
    std::printf("\nlocate-rounds vs ln(n): linear slope %s rounds per ln n "
                "unit (Theorem 4: O(log n) rounds)\n",
                slope_text(linear_slope(lnns, latencies), 2).c_str());
  }
}

}  // namespace
}  // namespace churnstore
