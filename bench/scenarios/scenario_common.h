// Shared plumbing for the registered scenarios (README's scenario
// catalog, E1-E14).
//
// Every scenario receives a parsed ScenarioSpec (network sizes, churn,
// workload shape, trials, output format) plus the raw Cli for
// scenario-specific knobs, runs its Monte-Carlo trials through the Runner
// (all cores, deterministic), and prints the table recorded in
// EXPERIMENTS.md through emit().
#pragma once

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/stacks.h"
#include "core/system.h"
#include "obs/export.h"
#include "util/cli.h"
#include "util/table.h"

namespace churnstore::bench {

inline void emit(const Table& table, const ScenarioSpec& spec) {
  emit_table(table, spec, std::cout);
}

inline void banner(const ScenarioSpec& spec, const std::string& experiment,
                   const std::string& claim) {
  if (spec.csv || spec.json) return;  // keep machine output clean
  std::printf("== %s ==\n%s\n\n", experiment.c_str(), claim.c_str());
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
