// E10 — Erasure-coded storage (paper section 4.4).
//
// Claim: replacing replicas by Rabin IDA pieces cuts the stored bytes from
// Theta(log n) * |I| to a constant-factor blowup L/K while the committee
// machinery keeps >= K pieces alive across handovers.
//
// Measurement: replication vs IDA across a churn sweep and a surplus sweep:
// bytes stored network-wide per item, persistence, and retrieval success.
#include "scenario_common.h"

namespace churnstore::bench {
namespace {

struct ErasureRow {
  double stored_bytes = 0.0;
  double persist = 0.0;
  double fetch_rate = 0.0;
};

ErasureRow run_once(const ScenarioSpec& spec, bool erasure,
                    std::uint32_t surplus, std::uint64_t seed) {
  SystemConfig cfg = spec.system_config();
  cfg.sim.seed = seed;
  cfg.protocol.use_erasure_coding = erasure;
  cfg.protocol.ida_surplus = surplus;
  cfg.protocol.item_bits = 8192;
  P2PSystem sys(cfg);
  sys.run_rounds(sys.warmup_rounds());
  const ItemId item = 0xE0;
  for (int i = 0; i < 20 && !sys.store_item(3, item); ++i) sys.run_round();
  sys.run_rounds(2 * sys.tau());

  std::size_t bytes = 0;
  for (Vertex v = 0; v < sys.n(); ++v) {
    if (const Membership* m = sys.committees().membership_at(v, item)) {
      bytes += m->payload.size();
    }
  }

  // Age through several handovers, then search from survivors.
  sys.run_rounds(6 * sys.committees().refresh_period());
  ErasureRow row;
  row.stored_bytes = static_cast<double>(bytes);
  row.persist = sys.store().is_recoverable(item) ? 1.0 : 0.0;

  Rng rng(seed ^ 5);
  std::uint32_t ok = 0, eligible = 0;
  std::vector<std::uint64_t> sids;
  for (int s = 0; s < 6; ++s) {
    sids.push_back(
        sys.search(static_cast<Vertex>(rng.next_below(sys.n())), item));
  }
  sys.run_rounds(sys.search_timeout() + 4);
  for (const auto sid : sids) {
    const SearchStatus* st = sys.search_status(sid);
    if (!st || (st->initiator_churned && !st->succeeded_locate())) continue;
    ++eligible;
    ok += st->succeeded_fetch();
  }
  row.fetch_rate = eligible ? static_cast<double>(ok) / eligible : 0.0;
  return row;
}

}  // namespace

void run_erasure(const ScenarioSpec& spec, const Cli&) {
  banner(spec, "E10 erasure — IDA vs replication (section 4.4)",
         "stored bytes per item drop from Theta(log n)*|I| to ~L/K * |I| "
         "while persistence and retrieval stay intact");

  Runner runner(spec);
  Table t({"mode", "n", "churn/rd", "surplus", "stored bytes", "x item size",
           "persisted", "fetch rate"});
  const double item_bytes = 8192.0 / 8.0;
  for (const std::uint32_t n : spec.ns) {
    for (const double cm : {0.25, spec.churn.multiplier}) {
      const ScenarioSpec cell = at_churn(spec, n, cm);
      const auto churn_rd =
          static_cast<std::int64_t>(cell.churn.per_round(n));
      auto sweep = [&](const char* mode, bool erasure_mode,
                       std::uint32_t surplus, const std::string& label) {
        const auto rows = runner.map_trials<ErasureRow>(
            spec.trials,
            [&cell, erasure_mode, surplus, n](std::uint32_t trial) {
              return run_once(cell, erasure_mode, surplus,
                              Runner::trial_seed(cell.seed + n, trial));
            });
        const double bytes = trial_mean(rows, &ErasureRow::stored_bytes);
        t.begin_row()
            .cell(mode)
            .cell(static_cast<std::int64_t>(n))
            .cell(churn_rd)
            .cell(label)
            .cell(bytes, 0)
            .cell(bytes / item_bytes, 2)
            .cell(trial_mean(rows, &ErasureRow::persist), 2)
            .cell(trial_mean(rows, &ErasureRow::fetch_rate), 2);
      };
      sweep("replication", false, 3, "-");
      for (const std::uint32_t surplus : {2u, 3u, 4u}) {
        sweep("ida", true, surplus, std::to_string(surplus));
      }
    }
  }
  emit(t, spec);
}

}  // namespace churnstore::bench
