// The unified experiment driver: every workload that used to be its own
// bench binary is a registered scenario (see bench/scenarios/) selected at
// run time.
//
//   bench_driver --list
//   bench_driver --stacks
//   bench_driver --scenario=search n=256,512 trials=4 churn-mult=1.0
//   bench_driver --scenario=baselines protocol=chord n=512 json=true
//
// All spec keys are bare key=value (or --key=value). The command line is
// the only input: no environment variable changes a run.
#include <cstdio>
#include <exception>

#include "core/scenario.h"
#include "core/stacks.h"
#include "util/cli.h"

using namespace churnstore;

namespace {

void print_usage() {
  std::printf(
      "usage: bench_driver --scenario=<name> [key=value ...]\n"
      "       bench_driver --list      (scenario catalog)\n"
      "       bench_driver --stacks    (protocol stack catalog)\n"
      "\ncommon keys: protocol n degree seed trials churn churn-mult edge\n"
      "             items searches batches age-taus threads parallel shards\n"
      "             csv json (an unknown key exits 1 listing them all)\n"
      "the command line is the only input; no environment variable is read\n");
}

void print_catalog() {
  std::printf("registered scenarios:\n");
  for (const ScenarioDef* def : ScenarioRegistry::instance().all()) {
    std::printf("  %-20s %s\n", def->name.c_str(), def->summary.c_str());
  }
}

void print_stacks() {
  std::printf("protocol stacks (spec key: protocol=<name>):\n");
  for (const auto& [name, summary] : stack_catalog()) {
    std::printf("  %-18s %s\n", name.c_str(), summary.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  if (cli.get_bool("list", false)) {
    print_catalog();
    return 0;
  }
  if (cli.get_bool("stacks", false)) {
    print_stacks();
    return 0;
  }

  std::string name = cli.get("scenario", "");
  if (name.empty() && !cli.positional().empty()) name = cli.positional().front();
  if (name.empty()) {
    print_usage();
    std::printf("\n");
    print_catalog();
    return 2;
  }

  const ScenarioDef* def = ScenarioRegistry::instance().find(name);
  if (!def) {
    std::fprintf(stderr, "unknown scenario: %s\n\n", name.c_str());
    print_catalog();
    return 2;
  }

  try {
    const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
    def->run(spec, cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario %s failed: %s\n", name.c_str(), e.what());
    return 1;
  }
  return 0;
}
