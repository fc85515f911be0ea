// E5 — Landmark set size (paper Lemma 8).
//
// Claim: the landmark trees built by a committee contain between sqrt(n)
// and O(n^{0.5+delta} log n) nodes, near-uniformly distributed over the
// Core.
//
// Measurement: peak live landmark count across an n sweep, compared to
// sqrt(n) and n^{0.75} ln n; the log-log slope of the count against n
// should sit in [0.5, 0.75].
#include <algorithm>
#include <cmath>

#include "scenario_common.h"
#include "stats/summary.h"

namespace churnstore::bench {
namespace {

struct LandmarkRow {
  double peak = 0.0;
  double mean = 0.0;
  std::uint32_t depth = 0;
};

}  // namespace

void run_landmark(const ScenarioSpec& spec, const Cli&) {
  banner(spec, "E5 landmark — landmark set size (Lemma 8)",
         "sqrt(n) <= |M_I| <= O(n^{0.5+delta} log n); log-log slope of the "
         "landmark count vs n should land in [0.5, 0.75]");

  Runner runner(spec);
  Table t({"n", "tree depth", "peak landmarks", "mean landmarks", "sqrt(n)",
           "n^0.75*ln n", "peak/sqrt(n)"});
  std::vector<double> xs, ys;
  for (const std::uint32_t n : spec.ns) {
    const ScenarioSpec cell = spec.with_n(n);
    const auto rows = runner.map_trials<LandmarkRow>(
        spec.trials, [&cell, n](std::uint32_t trial) {
          SystemConfig cfg = cell.system_config();
          cfg.sim.seed = Runner::trial_seed(cell.seed + n, trial);
          P2PSystem sys(cfg);
          LandmarkRow row;
          row.depth = sys.landmarks().tree_depth();
          sys.run_rounds(sys.warmup_rounds());
          for (int i = 0; i < 20 && !sys.store_item(0, 1); ++i)
            sys.run_round();
          // Observe across two refresh cycles after the first wave
          // completes.
          sys.run_rounds(row.depth + 3);
          std::size_t mx = 0;
          RunningStat trace;
          for (std::uint32_t r = 0;
               r < 2 * sys.committees().refresh_period(); ++r) {
            sys.run_round();
            const std::size_t live = sys.landmarks().live_count(1);
            mx = std::max(mx, live);
            trace.add(static_cast<double>(live));
          }
          row.peak = static_cast<double>(mx);
          row.mean = trace.mean();
          return row;
        });
    const double peak = trial_mean(rows, &LandmarkRow::peak);
    const double sqrt_n = std::sqrt(static_cast<double>(n));
    const double upper = std::pow(static_cast<double>(n), 0.75) * std::log(n);
    t.begin_row()
        .cell(static_cast<std::int64_t>(n))
        .cell(static_cast<std::int64_t>(rows.back().depth))
        .cell(peak, 1)
        .cell(trial_mean(rows, &LandmarkRow::mean), 1)
        .cell(sqrt_n, 1)
        .cell(upper, 1)
        .cell(peak / sqrt_n, 2);
    xs.push_back(static_cast<double>(n));
    ys.push_back(peak);
  }
  emit(t, spec);
  if (!spec.csv && !spec.json) {
    std::printf("\nlog-log slope of peak landmarks vs n: %s "
                "(Lemma 8 predicts within [0.5, 0.75])\n",
                slope_text(loglog_slope(xs, ys), 3).c_str());
  }
}

}  // namespace churnstore::bench
