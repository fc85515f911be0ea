// Shared experiment workloads (README's scenario catalog, E1-E14): the
// canonical store-then-search trial, availability tracking over time, and
// Monte-Carlo aggregation across seeds.
//
// The store-search trial is generic over the protocol stack: it drives any
// ScenarioSpec-named stack (paper protocol or baseline) through the
// StorageService facade, so `protocol=chord` and `protocol=churnstore` run
// the identical workload. Multi-trial aggregation goes through the Runner
// (core/runner.h) and saturates all cores deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "core/service.h"
#include "core/system.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace churnstore {

class ThreadPool;

struct StoreSearchResult {
  std::uint64_t searches = 0;
  std::uint64_t located = 0;
  std::uint64_t fetched = 0;
  std::uint64_t censored = 0;  ///< initiator churned out mid-search
  RunningStat locate_rounds;   ///< rounds from start to locate, successes only
  /// Full locate-latency distribution (same observations as locate_rounds)
  /// so scenarios can print tail quantiles, not just the mean.
  Histogram locate_hist{0.0, 256.0, 256};
  /// Per-trial summaries: each trial contributes ONE observation, so after
  /// a merge the mean/stddev/ci95_halfwidth are across-trial statistics
  /// (the tables print mean +/- ci95). Replaces the old trial-weighted
  /// double averages, which could not report confidence intervals.
  RunningStat availability;         ///< fraction of item-checks available
  RunningStat bits_node_round_max;  ///< mean over rounds of per-round max
  RunningStat bits_node_round_mean;

  void merge(const StoreSearchResult& o);
  [[nodiscard]] double locate_rate() const;
  [[nodiscard]] double fetch_rate() const;
};

/// The one store -> age -> search loop, over any stack's StorageService:
/// warm up, store `options.items` items from random creators (advancing a
/// round while the service is not ready), age a fixed 2 tau plus
/// `options.age_taus` taus, then run `options.batches` batches of
/// concurrent searches, each judged after search_timeout() + 4 rounds. A
/// searcher that churns out before locating is censored. The workload's
/// draws (creators, items, initiators) come from `seed`.
[[nodiscard]] StoreSearchResult drive_store_search(
    P2PSystem& sys, StorageService& svc, const StoreSearchOptions& options,
    std::uint64_t seed);

/// One store-then-search trial (drive_store_search) of the spec's protocol
/// stack at spec.seed. `shard_pool` (borrowed, may be null) is lent to the
/// trial system's sharded round engine (sim.shards from the spec). With the
/// obs= spec keys set, the trial exports to its own file, labelled by
/// protocol, n, churn per round and a digest of the trial's spec (seed
/// included). Multi-trial runs go through Runner::store_search.
[[nodiscard]] StoreSearchResult run_store_search_trial(
    const ScenarioSpec& spec, ThreadPool* shard_pool = nullptr);

/// Availability-over-time workload (experiments E6, E12 and E13): store one
/// item and record copies and availability every
/// kAvailabilitySampleRounds rounds for `horizon_taus` taus.
inline constexpr std::uint32_t kAvailabilitySampleRounds = 4;

struct AvailabilityTrace {
  std::vector<Round> rounds;
  std::vector<std::uint64_t> copies;
  std::vector<std::uint8_t> available;
  std::vector<std::uint8_t> recoverable;
  std::uint64_t generations = 0;

  [[nodiscard]] double availability_fraction() const;
  [[nodiscard]] double recoverable_fraction() const;
  [[nodiscard]] Round first_unrecoverable() const;  ///< -1 if never
};

[[nodiscard]] AvailabilityTrace run_availability_trial(
    const SystemConfig& config, double horizon_taus);

}  // namespace churnstore
