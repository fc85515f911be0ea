// E2 — Dynamic mixing (paper Lemma 1).
//
// Claim: on a dynamic d-regular expander (edges changing every round, no
// churn), a walk of T = Theta(log n) steps lands within [1/2n, 3/2n] of
// every node, and all walks complete T steps within tau = O(log n) rounds.
//
// Measurement: many probe walks from a SINGLE source (injected in batches
// under the forwarding cap), sweeping the walk length and the edge-dynamics
// mode. The per-source destination TVD collapses once T crosses ~2.5 ln n
// for d = 8 — identically for static, rewired, and regenerated topologies,
// which is exactly the "dynamic mixing time" claim.
#include <vector>

#include "net/network.h"
#include "scenario_common.h"
#include "stats/divergence.h"
#include "walk/token_soup.h"

namespace churnstore::bench {
namespace {

UniformityReport measure(const ScenarioSpec& spec, EdgeDynamics dynamics,
                         double t_mult, std::uint64_t seed,
                         std::uint32_t total_probes) {
  SimConfig cfg = spec.system_config().sim;
  cfg.seed = seed;
  cfg.churn.kind = AdversaryKind::kNone;
  cfg.edge_dynamics = dynamics;
  const std::uint32_t n = cfg.n;
  Network net(cfg);
  WalkConfig wc = spec.walk;
  wc.t_mult = t_mult;
  TokenSoup soup(net, wc);
  soup.set_spawning(false);

  std::vector<std::uint64_t> arrivals(n, 0);
  std::uint64_t done = 0;
  soup.set_probe_hook(
      [&](std::uint64_t, Vertex d, Round) { ++arrivals[d]; ++done; });

  // Inject from vertex 0 in batches of cap/2 per round so nothing queues,
  // then drain.
  const std::uint32_t batch = std::max(1u, soup.cap() / 2);
  std::uint32_t injected = 0;
  while (done < total_probes) {
    net.begin_round();
    for (std::uint32_t i = 0; i < batch && injected < total_probes; ++i) {
      soup.inject_probe(0, 0, soup.walk_length());
      ++injected;
    }
    soup.step();
    net.deliver();
  }
  return uniformity_report(arrivals);
}

}  // namespace

void run_mixing(const ScenarioSpec& spec, const Cli& cli) {
  const std::uint32_t probes = cli_count(cli, "probes", 40000);

  banner(spec, "E2 mixing — dynamic mixing time (Lemma 1)",
         "single-source destination TVD vs walk length, per edge-dynamics "
         "mode; T ~ 2.5 ln n suffices on every mode (mixing is Theta(log n))");

  struct Cell {
    double tvd = 0.0, min_pn = 0.0, max_pn = 0.0, zero = 0.0;
  };

  Runner runner(spec);
  Table t({"n", "mode", "T (steps)", "T/ln n", "tvd", "min p*n", "max p*n",
           "zero frac"});
  for (const std::uint32_t n : spec.ns) {
    for (const EdgeDynamics mode :
         {EdgeDynamics::kStatic, EdgeDynamics::kRewire,
          EdgeDynamics::kRegenerate}) {
      for (const double tm : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
        const ScenarioSpec cell_spec = spec.with_n(n);
        const auto cells = runner.map_trials<Cell>(
            spec.trials, [&cell_spec, mode, tm, n, probes](std::uint32_t trial) {
              const auto rep =
                  measure(cell_spec, mode, tm,
                          Runner::trial_seed(cell_spec.seed + n, trial),
                          probes);
              return Cell{rep.tvd, rep.min_prob_times_n, rep.max_prob_times_n,
                          rep.zero_fraction};
            });
        WalkConfig wc = spec.walk;
        wc.t_mult = tm;
        const std::uint32_t steps = walk_length(n, wc);
        t.begin_row()
            .cell(static_cast<std::int64_t>(n))
            .cell(std::string(to_name(mode)))
            .cell(static_cast<std::int64_t>(steps))
            .cell(tm, 1)
            .cell(trial_mean(cells, &Cell::tvd))
            .cell(trial_mean(cells, &Cell::min_pn), 3)
            .cell(trial_mean(cells, &Cell::max_pn), 3)
            .cell(trial_mean(cells, &Cell::zero), 3);
      }
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
