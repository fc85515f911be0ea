// Shared plumbing for the scenarios (README's scenario catalog: E1-E14).
// The engine's timing at any n and shard count is the ledger binary's job
// (ledger/ledger.cpp), not a scenario's.
//
// Each scenario is a plain run_<name>(spec, cli) function, one per file,
// listed in the scenario table in bench_driver.cpp. Before calling it the
// driver registers the row's own knobs, parses the row's defaults ahead of
// the command line (so the command line wins) and checks the obs keys. The
// function receives the parsed ScenarioSpec (network sizes, churn,
// workload shape, trials, output format) plus the Cli for the row's knobs
// (a knob the row does not list is rejected before it runs), runs its
// Monte-Carlo trials through the Runner (all cores, deterministic),
// averages them with trial_mean() and prints the table recorded in
// EXPERIMENTS.md through emit().
#pragma once

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/stacks.h"
#include "core/system.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "util/table.h"

namespace churnstore::bench {

/// The scenarios, in the table's (name) order.
void run_ablation(const ScenarioSpec& spec, const Cli& cli);
void run_adversary(const ScenarioSpec& spec, const Cli& cli);
void run_baselines(const ScenarioSpec& spec, const Cli& cli);
void run_chord(const ScenarioSpec& spec, const Cli& cli);
void run_churn_limit(const ScenarioSpec& spec, const Cli& cli);
void run_committee(const ScenarioSpec& spec, const Cli& cli);
void run_erasure(const ScenarioSpec& spec, const Cli& cli);
void run_landmark(const ScenarioSpec& spec, const Cli& cli);
void run_message_complexity(const ScenarioSpec& spec, const Cli& cli);
void run_mixing(const ScenarioSpec& spec, const Cli& cli);
void run_search(const ScenarioSpec& spec, const Cli& cli);
void run_soup(const ScenarioSpec& spec, const Cli& cli);
void run_storage(const ScenarioSpec& spec, const Cli& cli);

/// Print `table` in the spec's chosen format (aligned text, CSV, or JSON).
inline void emit(const Table& table, const ScenarioSpec& spec) {
  if (spec.json) {
    table.print_json(std::cout);
  } else if (spec.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

inline void banner(const ScenarioSpec& spec, const std::string& experiment,
                   const std::string& claim) {
  if (spec.csv || spec.json) return;  // keep machine output clean
  std::printf("== %s ==\n%s\n\n", experiment.c_str(), claim.c_str());
}

/// The mean of one field over a cell's trial rows, accumulated in trial
/// order.
template <typename Row>
double trial_mean(const std::vector<Row>& rows, double Row::*field) {
  RunningStat stat;
  for (const Row& row : rows) stat.add(row.*field);
  return stat.mean();
}

/// The mean of one-value trial rows, in trial order.
inline double trial_mean(const std::vector<double>& rows) {
  RunningStat stat;
  for (const double row : rows) stat.add(row);
  return stat.mean();
}

/// A fitted slope for a summary line, or "n/a" when the fit has no slope
/// (fewer than two usable points): never a fake zero.
inline std::string slope_text(const std::optional<double>& slope, int digits) {
  if (!slope) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, *slope);
  return buf;
}

/// Churn sweep helper: spec variant at multiplier `cm` (kNone at 0).
inline ScenarioSpec at_churn(const ScenarioSpec& spec, std::uint32_t n,
                             double cm) {
  return spec.with_n(n).with_churn_multiplier(cm);
}

}  // namespace churnstore::bench
