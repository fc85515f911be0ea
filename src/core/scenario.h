// Declarative experiment specs.
//
// A ScenarioSpec captures everything a workload run needs — network size(s),
// churn model, adversary kind, protocol stack, workload shape, trial
// count, seeds, and execution options — as a flat set of key=value
// pairs parsed through util/cli. bench_driver's scenario table
// (bench/bench_driver.cpp) maps each scenario name to a function that
// receives the parsed spec and drives the Runner:
//
//   bench_driver --list
//   bench_driver --scenario=search n=256,512 trials=4 churn-mult=1.0
//   bench_driver --scenario=baselines protocol=chord n=512 json=true
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"
#include "util/cli.h"

namespace churnstore {

/// Workload: store `items` items after warm-up, wait `age_taus` taus, then
/// run `batches` batches of `searchers_per_batch` concurrent searches from
/// uniformly random initiators; each batch runs to the search timeout.
struct StoreSearchOptions {
  std::uint32_t items = 4;
  std::uint32_t searchers_per_batch = 16;
  std::uint32_t batches = 2;
  /// Extra churn exposure between store and first search, in taus.
  double age_taus = 2.0;
};

/// The largest `threads=` a spec may ask for. A pool starts every thread it
/// is given, so from_cli rejects a larger value naming the key.
inline constexpr std::size_t kMaxThreads = 1024;

struct ScenarioSpec {
  /// Protocol stack name (see core/stacks.h): churnstore, chord, flooding,
  /// k-walker, sqrt-replication.
  std::string protocol = "churnstore";

  /// Network sizes; scenarios sweep the list, single-system helpers use the
  /// first entry.
  std::vector<std::uint32_t> ns = {1024};
  std::uint64_t seed = 1;
  std::uint32_t trials = 2;

  /// Paper-form churn c * n / ln^1.5 n. The paper's c = 4 means >25% of the
  /// network per round at simulatable n (ln n ~ 6-9), far outside the
  /// asymptotic regime the analysis lives in; c = 0.5 (~2-4% per round)
  /// keeps the same functional form at a survivable constant. The
  /// churn_limit scenario sweeps c to find the breaking point.
  ChurnSpec churn{.kind = AdversaryKind::kUniform, .multiplier = 0.5};
  EdgeDynamics edge_dynamics = EdgeDynamics::kRewire;

  WalkConfig walk{};
  /// Set in code (the ablation scenario, tests); only `erasure` is a key.
  ProtocolConfig protocol_config{};

  StoreSearchOptions workload{};

  /// Runner execution: threads that run trials, the calling thread
  /// included (0 = hardware, at most kMaxThreads; 1 = all inline). The
  /// ledger binary reads the same key as its pool's worker count, so its
  /// helping caller makes threads+1.
  std::size_t threads = 0;
  /// Intra-round shards per trial system (1 = unsharded, 0 = hardware).
  /// Any value yields bit-identical results; see util/sharding.h.
  std::uint32_t shards = 1;

  /// Output format.
  bool csv = false;
  bool json = false;

  /// Registered keys that the common spec does not model: the obs keys,
  /// measure-rounds (the ledger binary's) and the running scenario's own
  /// knobs (e.g. periods=4).
  std::map<std::string, std::string> extras;

  /// Parses a spec from key=value flags. Every key must be either a common
  /// spec key or a registered extra: an unknown key (e.g. the typo
  /// `shard=4`) throws std::invalid_argument listing the accepted keys
  /// instead of being silently ignored.
  [[nodiscard]] static ScenarioSpec from_cli(const Cli& cli);

  /// Registers an extra key as accepted by from_cli. The obs keys and
  /// measure-rounds are pre-registered; a scenario's own knobs (periods,
  /// probes, horizon-taus) are registered by the program that runs it
  /// (bench_driver, for the running scenario only).
  static void accept_extra_key(const std::string& key);
  /// All keys from_cli accepts (common spec keys + registered extras),
  /// sorted; the validation error lists these.
  [[nodiscard]] static std::vector<std::string> accepted_keys();

  [[nodiscard]] std::uint32_t n() const noexcept { return ns.front(); }
  [[nodiscard]] SystemConfig system_config() const { return system_config(n()); }
  [[nodiscard]] SystemConfig system_config(std::uint32_t n_override) const;

  [[nodiscard]] ScenarioSpec with_n(std::uint32_t n_override) const;
  [[nodiscard]] ScenarioSpec with_churn_multiplier(double multiplier) const;
  [[nodiscard]] ScenarioSpec with_seed(std::uint64_t seed_override) const;

  [[nodiscard]] std::string extra(const std::string& key,
                                  const std::string& fallback) const;
  [[nodiscard]] std::int64_t extra_int(const std::string& key,
                                       std::int64_t fallback) const;
};

/// Lookup helpers for key=value extras maps (shared by ScenarioSpec and
/// the obs config). A present value goes through util/cli's strict
/// parsers, so it must parse whole; the error names the key.
[[nodiscard]] std::string extras_string(
    const std::map<std::string, std::string>& extras, const std::string& key,
    const std::string& fallback);
[[nodiscard]] std::int64_t extras_int(
    const std::map<std::string, std::string>& extras, const std::string& key,
    std::int64_t fallback);

/// Count readers: the value of `key` (or `fallback` when it is absent) as
/// an unsigned count. A negative or oversized value throws
/// std::invalid_argument naming the key, where a cast would wrap -1 to
/// 4294967295. from_cli and the scenarios read every count through these.
[[nodiscard]] std::uint32_t cli_count(const Cli& cli, const std::string& key,
                                      std::uint32_t fallback);
/// A comma-separated list of counts, e.g. n=256,512,1024.
[[nodiscard]] std::vector<std::uint32_t> cli_count_list(
    const Cli& cli, const std::string& key,
    const std::vector<std::int64_t>& fallback);
/// Rejects a zero count for a key that sizes the measured work itself
/// (trials): zero runs nothing, and the all-zero rows it would print read
/// as a measurement. Throws std::invalid_argument naming the key.
void require_nonzero(const std::string& key, std::uint64_t value);
/// Rejects any value but `only` for a key a scenario cannot vary (chord
/// runs one cell per n and churn level, so its `trials` must be 1): an
/// ignored value would print a table that reads as if it had been used.
/// Throws std::invalid_argument naming the key.
void require_exactly(const std::string& key, std::uint64_t value,
                     std::uint64_t only);

/// Enum <-> name mappings used by the spec (and anywhere else a config
/// field meets a command line).
[[nodiscard]] std::string_view to_name(AdversaryKind kind) noexcept;
[[nodiscard]] std::string_view to_name(EdgeDynamics dynamics) noexcept;
[[nodiscard]] AdversaryKind adversary_from_name(std::string_view name);
[[nodiscard]] EdgeDynamics edge_dynamics_from_name(std::string_view name);

}  // namespace churnstore
