#include "core/scenario.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

namespace churnstore {

namespace {

/// Exact double round-trip (17 significant digits).
std::string fmt_double(double v) {
  std::ostringstream ss;
  ss << std::setprecision(17) << v;
  return ss.str();
}

std::string fmt_n_list(const std::vector<std::uint32_t>& ns) {
  std::string out;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ns[i]);
  }
  return out;
}

/// Keys the common spec models; everything else must be a registered extra.
/// The driver's own switches (scenario, list, stacks, help) count as known
/// so a spec parsed from the driver's argv validates cleanly.
const char* const kKnownKeys[] = {
    "protocol",   "n",          "degree",        "seed",
    "trials",     "churn",      "churn-mult",    "churn-absolute",
    "edge",       "walk-rate",  "walk-t",        "walk-window",
    "oversample", "fanout",     "landmark-ttl-taus",
    "refresh-taus",             "item-bits",     "erasure",
    "ida-surplus",              "items",         "searches",
    "batches",    "age-taus",   "threads",       "parallel",
    "shards",     "csv",        "json",          "scenario",
    "list",       "stacks",     "help",
};

/// Extra keys every spec accepts. A scenario-only knob is not listed here:
/// the program that runs the scenario registers it through
/// ScenarioSpec::accept_extra_key (bench_driver registers only the running
/// scenario's knobs, so any other scenario rejects them).
std::set<std::string>& extra_key_registry() {
  // shardcheck:ok(R4: Meyers registry mutated only during static init and CLI parsing, before any round runs)
  static std::set<std::string> keys = {
      // read by ledger/ledger.cpp alone; bench_driver rejects it for
      // every scenario
      "measure-rounds",
      // observability (obs/export.h)
      "obs", "obs-file", "obs-host", "trace-sample",
  };
  return keys;
}

bool is_known_key(const std::string& key) {
  for (const char* k : kKnownKeys) {
    if (key == k) return true;
  }
  return extra_key_registry().count(key) > 0;
}

/// A count the spec stores unsigned. The cast would wrap a negative value
/// (or truncate an oversized one) to a huge count, so an out-of-range value
/// is rejected with an error naming the key.
template <typename T>
T non_negative(const std::string& key, std::int64_t value) {
  if (value < 0 ||
      static_cast<std::uint64_t>(value) > std::numeric_limits<T>::max()) {
    std::string msg = "spec key '";
    msg += key;
    msg += "' must be in [0, ";
    msg += std::to_string(std::numeric_limits<T>::max());
    msg += "], got ";
    msg += std::to_string(value);
    throw std::invalid_argument(msg);
  }
  return static_cast<T>(value);
}

template <typename T>
T get_count(const Cli& cli, const std::string& key, T fallback) {
  return non_negative<T>(
      key, cli.get_int(key, static_cast<std::int64_t>(fallback)));
}

}  // namespace

void ScenarioSpec::accept_extra_key(const std::string& key) {
  extra_key_registry().insert(key);
}

std::vector<std::string> ScenarioSpec::accepted_keys() {
  std::vector<std::string> out(std::begin(kKnownKeys), std::end(kKnownKeys));
  out.insert(out.end(), extra_key_registry().begin(),
             extra_key_registry().end());
  std::sort(out.begin(), out.end());
  return out;
}

std::string_view to_name(AdversaryKind kind) noexcept {
  switch (kind) {
    case AdversaryKind::kNone: return "none";
    case AdversaryKind::kUniform: return "uniform";
    case AdversaryKind::kBlockSweep: return "block-sweep";
    case AdversaryKind::kRegionRepeat: return "region-repeat";
    case AdversaryKind::kOldestFirst: return "oldest-first";
    case AdversaryKind::kYoungestFirst: return "youngest-first";
    case AdversaryKind::kAdaptive: return "adaptive";
  }
  return "uniform";
}

std::string_view to_name(EdgeDynamics dynamics) noexcept {
  switch (dynamics) {
    case EdgeDynamics::kStatic: return "static";
    case EdgeDynamics::kRewire: return "rewire";
    case EdgeDynamics::kRegenerate: return "regenerate";
  }
  return "rewire";
}

AdversaryKind adversary_from_name(std::string_view name) {
  for (const AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kUniform,
        AdversaryKind::kBlockSweep, AdversaryKind::kRegionRepeat,
        AdversaryKind::kOldestFirst, AdversaryKind::kYoungestFirst,
        AdversaryKind::kAdaptive}) {
    if (name == to_name(k)) return k;
  }
  throw std::invalid_argument("unknown adversary kind: " + std::string(name));
}

EdgeDynamics edge_dynamics_from_name(std::string_view name) {
  for (const EdgeDynamics d : {EdgeDynamics::kStatic, EdgeDynamics::kRewire,
                               EdgeDynamics::kRegenerate}) {
    if (name == to_name(d)) return d;
  }
  throw std::invalid_argument("unknown edge dynamics: " + std::string(name));
}

ScenarioSpec ScenarioSpec::from_cli(const Cli& cli) {
  ScenarioSpec spec;
  spec.protocol = cli.get("protocol", spec.protocol);

  spec.ns = cli_count_list(cli, "n", {1024});
  spec.degree = get_count(cli, "degree", spec.degree);
  if (cli.has("seed")) spec.seed = parse_u64("seed", cli.get("seed", ""));
  spec.trials = get_count(cli, "trials", spec.trials);

  spec.churn.kind = adversary_from_name(cli.get("churn", "uniform"));
  spec.churn.multiplier = cli.get_double("churn-mult", spec.churn.multiplier);
  spec.churn.absolute = cli.get_int("churn-absolute", spec.churn.absolute);
  spec.edge_dynamics = edge_dynamics_from_name(cli.get("edge", "rewire"));

  spec.walk.rate_mult = cli.get_double("walk-rate", spec.walk.rate_mult);
  spec.walk.t_mult = cli.get_double("walk-t", spec.walk.t_mult);
  spec.walk.window_mult = cli.get_double("walk-window", spec.walk.window_mult);

  ProtocolConfig& pc = spec.protocol_config;
  pc.invite_oversample = cli.get_double("oversample", pc.invite_oversample);
  pc.tree_fanout = get_count(cli, "fanout", pc.tree_fanout);
  pc.landmark_ttl_taus =
      cli.get_double("landmark-ttl-taus", pc.landmark_ttl_taus);
  pc.refresh_taus = cli.get_double("refresh-taus", pc.refresh_taus);
  pc.item_bits = get_count(cli, "item-bits", pc.item_bits);
  pc.use_erasure_coding = cli.get_bool("erasure", pc.use_erasure_coding);
  pc.ida_surplus = get_count(cli, "ida-surplus", pc.ida_surplus);

  spec.workload.items = get_count(cli, "items", spec.workload.items);
  spec.workload.searchers_per_batch =
      get_count(cli, "searches", spec.workload.searchers_per_batch);
  spec.workload.batches = get_count(cli, "batches", spec.workload.batches);
  spec.workload.age_taus = cli.get_double("age-taus", spec.workload.age_taus);

  spec.threads = get_count<std::size_t>(cli, "threads", 0);
  if (spec.threads > kMaxThreads) {
    throw std::invalid_argument(
        "spec key 'threads' must be in [0, " + std::to_string(kMaxThreads) +
        "] (0 = the hardware thread count), got " +
        std::to_string(spec.threads));
  }
  spec.parallel = cli.get_bool("parallel", spec.parallel);
  spec.shards = get_count(cli, "shards", spec.shards);
  spec.csv = cli.get_bool("csv", spec.csv);
  spec.json = cli.get_bool("json", spec.json);

  for (const auto& [key, value] : cli.flags()) {
    if (!is_known_key(key)) {
      std::string msg = "unknown spec key '" + key + "'; accepted keys:";
      for (const std::string& k : accepted_keys()) msg += " " + k;
      throw std::invalid_argument(msg);
    }
    // Registered extras ride along for the scenario/stack that owns them.
    if (extra_key_registry().count(key)) spec.extras[key] = value;
  }
  return spec;
}

std::vector<std::string> ScenarioSpec::to_key_values() const {
  std::vector<std::string> out;
  auto kv = [&out](const std::string& k, const std::string& v) {
    out.push_back(k + "=" + v);
  };
  kv("protocol", protocol);
  kv("n", fmt_n_list(ns));
  kv("degree", std::to_string(degree));
  kv("seed", std::to_string(seed));
  kv("trials", std::to_string(trials));
  kv("churn", std::string(to_name(churn.kind)));
  kv("churn-mult", fmt_double(churn.multiplier));
  kv("churn-absolute", std::to_string(churn.absolute));
  kv("edge", std::string(to_name(edge_dynamics)));
  kv("walk-rate", fmt_double(walk.rate_mult));
  kv("walk-t", fmt_double(walk.t_mult));
  kv("walk-window", fmt_double(walk.window_mult));
  kv("oversample", fmt_double(protocol_config.invite_oversample));
  kv("fanout", std::to_string(protocol_config.tree_fanout));
  kv("landmark-ttl-taus", fmt_double(protocol_config.landmark_ttl_taus));
  kv("refresh-taus", fmt_double(protocol_config.refresh_taus));
  kv("item-bits", std::to_string(protocol_config.item_bits));
  kv("erasure", protocol_config.use_erasure_coding ? "true" : "false");
  kv("ida-surplus", std::to_string(protocol_config.ida_surplus));
  kv("items", std::to_string(workload.items));
  kv("searches", std::to_string(workload.searchers_per_batch));
  kv("batches", std::to_string(workload.batches));
  kv("age-taus", fmt_double(workload.age_taus));
  kv("threads", std::to_string(threads));
  kv("parallel", parallel ? "true" : "false");
  kv("shards", std::to_string(shards));
  kv("csv", csv ? "true" : "false");
  kv("json", json ? "true" : "false");
  for (const auto& [key, value] : extras) kv(key, value);
  return out;
}

SystemConfig ScenarioSpec::system_config(std::uint32_t n_override) const {
  SystemConfig cfg;
  cfg.sim.n = n_override;
  cfg.sim.degree = degree;
  cfg.sim.seed = seed;
  cfg.sim.churn = churn;
  cfg.sim.edge_dynamics = edge_dynamics;
  cfg.sim.shards = shards;
  cfg.walk = walk;
  cfg.protocol = protocol_config;
  return cfg;
}

ScenarioSpec ScenarioSpec::with_n(std::uint32_t n_override) const {
  ScenarioSpec out = *this;
  out.ns = {n_override};
  return out;
}

ScenarioSpec ScenarioSpec::with_churn_multiplier(double multiplier) const {
  ScenarioSpec out = *this;
  out.churn.multiplier = multiplier;
  if (multiplier <= 0.0 && out.churn.absolute < 0) {
    out.churn.kind = AdversaryKind::kNone;
  }
  return out;
}

ScenarioSpec ScenarioSpec::with_seed(std::uint64_t seed_override) const {
  ScenarioSpec out = *this;
  out.seed = seed_override;
  return out;
}

std::string extras_string(const std::map<std::string, std::string>& extras,
                          const std::string& key,
                          const std::string& fallback) {
  const auto it = extras.find(key);
  return it == extras.end() ? fallback : it->second;
}

std::int64_t extras_int(const std::map<std::string, std::string>& extras,
                        const std::string& key, std::int64_t fallback) {
  const auto it = extras.find(key);
  return it == extras.end() ? fallback : parse_int(key, it->second);
}

std::uint32_t cli_count(const Cli& cli, const std::string& key,
                        std::uint32_t fallback) {
  return get_count(cli, key, fallback);
}

std::vector<std::uint32_t> cli_count_list(
    const Cli& cli, const std::string& key,
    const std::vector<std::int64_t>& fallback) {
  std::vector<std::uint32_t> out;
  for (const std::int64_t v : cli.get_int_list(key, fallback)) {
    out.push_back(non_negative<std::uint32_t>(key, v));
  }
  return out;
}

void require_nonzero(const std::string& key, std::uint64_t value) {
  if (value == 0) {
    throw std::invalid_argument("spec key '" + key + "' must be >= 1, got 0");
  }
}

void require_exactly(const std::string& key, std::uint64_t value,
                     std::uint64_t only) {
  if (value != only) {
    throw std::invalid_argument("spec key '" + key + "' must be " +
                                std::to_string(only) + ", got " +
                                std::to_string(value));
  }
}

std::string ScenarioSpec::extra(const std::string& key,
                                const std::string& fallback) const {
  return extras_string(extras, key, fallback);
}

std::int64_t ScenarioSpec::extra_int(const std::string& key,
                                     std::int64_t fallback) const {
  return extras_int(extras, key, fallback);
}

}  // namespace churnstore
