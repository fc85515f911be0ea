// The unified experiment driver. One table (kScenarios below) lists every
// scenario: its name, summary, default keys, the scenario-only keys it
// reads, the common keys it pins, whether it exports observability output,
// and the run function in bench/scenarios/. Adding a scenario is a function
// plus a row.
//
//   bench_driver --list
//   bench_driver --stacks
//   bench_driver --scenario=search n=256,512 trials=4 churn-mult=1.0
//   bench_driver --scenario=baselines protocol=chord n=512 json=true
//
// All spec keys are bare key=value (or --key=value). The command line is
// the only input: no environment variable changes a run. A row's defaults
// are parsed ahead of the command line, so a key given there wins, and
// every value must parse whole (n=256x exits 1 naming the key). A
// scenario-only key is accepted only by the row that reads it (periods=4
// exits 1 for every scenario but committee), and a common key the row pins
// or sweeps exits 1 naming it (mixing edge=static).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "core/stacks.h"
#include "obs/export.h"
#include "scenario_common.h"
#include "util/cli.h"

using namespace churnstore;

namespace {

/// Whether a scenario attaches an observability session.
enum class Obs { kRejects, kExports };

struct Scenario {
  std::string_view name;
  std::string_view summary;
  /// Spec keys the scenario runs at unless the command line sets them.
  std::string_view defaults;
  /// The scenario-only keys its run function reads: registered for this
  /// row alone, so any other scenario rejects them as unknown.
  std::string_view knobs;
  /// Common keys the scenario sets or sweeps itself, so its table reads the
  /// same whatever the command line says: setting one exits 1 naming it.
  /// `key=value` pins the key to that value, which the command line may
  /// repeat.
  std::string_view pinned;
  /// kExports: the obs keys must form a valid ObsConfig. kRejects: any obs
  /// key that asks for output exits 1 (it would write nothing).
  Obs obs;
  void (*run)(const ScenarioSpec&, const Cli&);
};

/// Every scenario, sorted by name (the catalog order).
constexpr Scenario kScenarios[] = {
    // Every knob is a paper-stack constant, and every panel of adversary
    // stores and searches on that stack.
    {"ablation",
     "E13: sweep each protocol constant around the paper's choice",
     "n=512 items=1 searches=8 batches=1", "", "protocol=churnstore",
     Obs::kExports, bench::run_ablation},
    {"adversary",
     "E12: oblivious strategy ablation + the adaptive model-violation demo",
     "n=512 items=2 searches=8 batches=1", "", "protocol=churnstore",
     Obs::kExports, bench::run_adversary},
    // age-taus: how long items sit under churn before anyone searches. The
    // maintained protocol is indifferent to it; the unmaintained baselines
    // decay with it, which is the paper's whole point.
    {"baselines",
     "E9: paper protocol vs chord/flooding/k-walker/sqrt baselines under "
     "churn",
     "n=512 items=2 searches=10 batches=1 age-taus=10", "", "",
     Obs::kExports, bench::run_baselines},
    {"chord",
     "E14: message-accurate Chord — measured hops, bits, and ring health vs "
     "churn",
     "n=1024,4096 items=8 searches=24 age-taus=0 batches=1", "",
     "protocol=chord", Obs::kExports, bench::run_chord},
    // The churn sweep sets an absolute count per row, with the uniform
    // adversary (none at zero).
    {"churn_limit",
     "E11: the churn wall in both functional forms (section 5 conjecture)",
     "n=512", "", "churn churn-mult churn-absolute", Obs::kRejects,
     bench::run_churn_limit},
    {"committee", "E4: committee maintenance (Theorem 2)", "n=512 trials=3",
     "periods", "churn-mult", Obs::kRejects, bench::run_committee},
    // Every row sets its own storage mode, IDA surplus and item size.
    {"erasure", "E10: IDA pieces vs replication (section 4.4)", "n=512", "",
     "erasure", Obs::kRejects, bench::run_erasure},
    {"landmark", "E5: landmark set size vs sqrt(n) (Lemma 8)",
     "n=256,512,1024,2048,4096", "", "", Obs::kRejects, bench::run_landmark},
    {"message_complexity", "E8: per-node traffic is polylog(n), not linear",
     "n=128,256,512,1024,2048 trials=1 items=2 searches=6 batches=1", "", "",
     Obs::kExports, bench::run_message_complexity},
    // Mixing runs without churn and sweeps the walk length per edge mode.
    {"mixing", "E2: dynamic mixing time per edge mode (Lemma 1)",
     "n=1024 trials=1", "probes", "churn churn-mult churn-absolute edge walk-t",
     Obs::kRejects, bench::run_mixing},
    {"search", "E7: retrieval success and latency (Theorem 4)",
     "n=256,512,1024 items=3 searches=12", "", "", Obs::kExports,
     bench::run_search},
    {"soup",
     "E1+E3: Soup Theorem probe uniformity and walk survival (Theorem 1, "
     "Lemma 2)",
     "n=256,512,1024 trials=3", "probes", "", Obs::kRejects, bench::run_soup},
    {"storage", "E6: storage persistence traces (Theorem 3)",
     "n=512 trials=3", "horizon-taus", "churn-mult", Obs::kRejects,
     bench::run_storage},
};
static_assert(std::is_sorted(std::begin(kScenarios), std::end(kScenarios),
                             [](const Scenario& a, const Scenario& b) {
                               return a.name < b.name;
                             }));

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : kScenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

int width(std::string_view s) { return static_cast<int>(s.size()); }

/// The whitespace-separated words of a table cell.
std::vector<std::string> words(std::string_view cell) {
  std::vector<std::string> out;
  std::istringstream in{std::string(cell)};
  for (std::string word; in >> word;) out.push_back(word);
  return out;
}

void print_usage() {
  std::printf(
      "usage: bench_driver --scenario=<name> [key=value ...]\n"
      "       bench_driver --list      (scenario catalog and defaults)\n"
      "       bench_driver --stacks    (protocol stack catalog)\n"
      "\ncommon keys: protocol n seed trials churn churn-mult edge items\n"
      "             searches batches age-taus threads shards csv json\n"
      "             (an unknown key exits 1 listing them all)\n"
      "threads=N runs trials on N threads, this one included (0 = all\n"
      "cores, 1 = this thread alone); the output does not depend on it\n"
      "a scenario runs at its defaults (--list) unless the command line\n"
      "sets the key; every value must parse whole (n=256x exits 1)\n"
      "a scenario-only key (--list) is accepted by its scenario alone\n"
      "the command line is the only input; no environment variable is read\n");
}

void print_catalog() {
  std::printf("scenarios (name, summary, [defaults the command line "
              "overrides], scenario-only keys, common keys it pins):\n");
  for (const Scenario& s : kScenarios) {
    std::printf("  %-20.*s %.*s [%.*s]", width(s.name), s.name.data(),
                width(s.summary), s.summary.data(), width(s.defaults),
                s.defaults.data());
    if (!s.knobs.empty()) {
      std::printf(" keys: %.*s", width(s.knobs), s.knobs.data());
    }
    if (!s.pinned.empty()) {
      std::printf(" pins: %.*s", width(s.pinned), s.pinned.data());
    }
    std::printf("\n");
  }
}

void print_stacks() {
  std::printf("protocol stacks (spec key: protocol=<name>):\n");
  for (const auto& [name, summary] : stack_catalog()) {
    std::printf("  %-18s %s\n", name.c_str(), summary.c_str());
  }
}

/// Throws std::invalid_argument naming the first pinned key that `cli`
/// sets (to another value than the pin's, for a `key=value` pin). The row
/// defaults never set a pinned key, so `cli` setting one means the command
/// line did.
void reject_pinned(const Scenario& scenario, const Cli& cli) {
  for (const std::string& pin : words(scenario.pinned)) {
    const std::size_t eq = pin.find('=');
    const std::string key = pin.substr(0, eq);
    if (!cli.has(key)) continue;
    const std::string value = cli.get(key, "");
    if (eq == std::string::npos) {
      throw std::invalid_argument("spec key '" + key + "' is set by scenario " +
                                  std::string(scenario.name) +
                                  " itself; drop " + key + "=" + value);
    }
    if (value != pin.substr(eq + 1)) {
      throw std::invalid_argument("spec key '" + key + "' must be " +
                                  pin.substr(eq + 1) + " for scenario " +
                                  std::string(scenario.name) + ", got " +
                                  value);
    }
  }
}

/// Registers the row's scenario-only keys, parses the spec from the row's
/// defaults followed by `args` (so the command line wins), checks the
/// pinned and obs keys before any row prints, and runs the scenario.
void run(const Scenario& scenario, const std::vector<std::string>& args) {
  for (const std::string& key : words(scenario.knobs)) {
    ScenarioSpec::accept_extra_key(key);
  }
  std::vector<std::string> tokens = words(scenario.defaults);
  // The row must parse on its own too, where the command line overrides it.
  (void)ScenarioSpec::from_cli(Cli(tokens));
  tokens.insert(tokens.end(), args.begin(), args.end());
  const Cli cli(tokens);
  const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
  reject_pinned(scenario, cli);
  // The library registers measure-rounds for the ledger binary, which reads
  // it without registering it; a scenario would print the table of a run
  // without it.
  if (cli.has("measure-rounds")) {
    throw std::invalid_argument(
        "spec key 'measure-rounds' is read only by the ledger binary "
        "(ledger/ledger.cpp); no scenario reads it");
  }
  if (scenario.obs == Obs::kExports) {
    (void)obs_config_from_extras(spec.extras);
  } else {
    reject_obs_keys(spec.extras);
  }
  scenario.run(spec, cli);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::string name;
  try {
    const Cli cli(args);
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
    name = cli.get("scenario", "");
    if (name.empty() && !cli.positional().empty()) {
      name = cli.positional().front();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_driver: %s\n", e.what());
    return 1;
  }
  if (name.empty()) {
    print_usage();
    std::printf("\n");
    print_catalog();
    return 2;
  }

  const Scenario* scenario = find_scenario(name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario: %s\n\n", name.c_str());
    print_catalog();
    return 2;
  }

  try {
    run(*scenario, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario %s failed: %s\n", name.c_str(), e.what());
    return 1;
  }
  return 0;
}
