// E8 — Scalability (paper section 1.1: "polylogarithmic in n bits processed
// and sent per round by each node").
//
// Measurement: run the full protocol stack (soup + storage + searches) and
// record per-node per-round bit counts across an n sweep. If traffic were
// linear in n the bits/ln^2(n) column would blow up with n; polylog keeps
// it near-constant (the soup's Theta(log^2 n) token forwarding dominates).
//
// `protocol=` swaps the stack under the same measurement: protocol=chord
// charges its lookup/stabilize/transfer messages through the same Network
// path, so the DHT's maintenance cost curve is measured like-for-like
// against the paper stack.
#include <cmath>

#include "scenario_common.h"
#include "stats/summary.h"

namespace churnstore {
namespace {

using namespace churnstore::bench;

CHURNSTORE_SCENARIO(message_complexity,
                    "E8: per-node traffic is polylog(n), not linear") {
  ScenarioSpec base = spec;
  if (!cli.has("n")) base.ns = {128, 256, 512, 1024, 2048};
  if (!cli.has("trials")) base.trials = 1;
  if (!cli.has("items")) base.workload.items = 2;
  if (!cli.has("searches")) base.workload.searchers_per_batch = 6;
  if (!cli.has("batches")) base.workload.batches = 1;

  banner(base, "E8 message_complexity — per-node traffic is polylog(n)",
         "mean/max bits per node per round under the full workload; "
         "bits / ln^2 n stays near-constant while bits/n vanishes");

  Runner runner(base);
  Table t({"n", "mean bits/node/rd", "mean ci95", "max bits/node/rd",
           "mean/ln^2 n", "mean/n"});
  std::vector<double> xs, ys;
  for (const std::uint32_t n : base.ns) {
    const ScenarioSpec cell = base.with_n(n).with_seed(base.seed + n);
    const StoreSearchResult res = runner.store_search(cell);
    const double mean_bits = res.bits_node_round_mean.mean();
    const double ln2 = std::pow(std::log(static_cast<double>(n)), 2.0);
    t.begin_row()
        .cell(static_cast<std::int64_t>(n))
        .cell(mean_bits, 0)
        .cell(res.bits_node_round_mean.ci95_halfwidth(), 0)
        // .max() over trials: the column is the WORST trial's per-round
        // peak average, matching the paper's per-node bound reading.
        .cell(res.bits_node_round_max.max(), 0)
        .cell(mean_bits / ln2, 1)
        .cell(mean_bits / n, 1);
    xs.push_back(static_cast<double>(n));
    ys.push_back(mean_bits);
  }
  emit(t, base);
  if (!base.csv && !base.json) {
    std::printf(
        "\nlog-log slope of mean bits vs n: %s "
        "(0 = constant, 1 = linear; polylog gives ~0.1-0.3 at these n)\n",
        slope_text(loglog_slope(xs, ys), 3).c_str());
  }
}

}  // namespace
}  // namespace churnstore
