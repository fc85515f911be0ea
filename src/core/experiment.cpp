#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "core/stacks.h"
#include "obs/export.h"
#include "storage/item.h"
#include "util/rng.h"

namespace churnstore {

void StoreSearchResult::merge(const StoreSearchResult& o) {
  searches += o.searches;
  located += o.located;
  fetched += o.fetched;
  censored += o.censored;
  locate_rounds.merge(o.locate_rounds);
  fetch_rounds.merge(o.fetch_rounds);
  locate_hist.merge(o.locate_hist);
  availability.merge(o.availability);
  bits_node_round_max.merge(o.bits_node_round_max);
  bits_node_round_mean.merge(o.bits_node_round_mean);
  trial_count += o.trial_count;
}

double StoreSearchResult::locate_rate() const {
  const std::uint64_t eligible = searches - censored;
  return eligible ? static_cast<double>(located) / static_cast<double>(eligible)
                  : 0.0;
}

double StoreSearchResult::fetch_rate() const {
  const std::uint64_t eligible = searches - censored;
  return eligible ? static_cast<double>(fetched) / static_cast<double>(eligible)
                  : 0.0;
}

StoreSearchResult drive_store_search(P2PSystem& sys, StorageService& svc,
                                     const StoreSearchOptions& options,
                                     std::uint64_t seed) {
  Rng workload(mix64(seed ^ 0x776f726bULL));
  StoreSearchResult res;

  sys.run_rounds(sys.warmup_rounds());

  // Store the items from random creators (retrying while the stack is not
  // ready, e.g. walk-sample buffers still cold).
  std::vector<ItemId> items;
  for (std::uint32_t i = 0; i < options.items; ++i) {
    const ItemId item = mix64(seed * 1000 + i) | 1;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto creator = static_cast<Vertex>(workload.next_below(sys.n()));
      if (svc.try_store(creator, item)) {
        items.push_back(item);
        break;
      }
      sys.run_round();
    }
  }

  // Let the stack reach steady state and survive churn for a while before
  // anyone searches.
  sys.run_rounds(static_cast<std::uint32_t>(options.age_taus * sys.tau()) +
                 2 * sys.tau());

  double avail_fraction = 0.0;
  for (std::uint32_t b = 0; b < options.batches; ++b) {
    // Sample availability god-view at batch start.
    std::uint64_t avail = 0;
    for (const ItemId item : items) avail += svc.is_available(item);
    avail_fraction +=
        items.empty() ? 0.0
                      : static_cast<double>(avail) /
                            static_cast<double>(items.size()) /
                            static_cast<double>(options.batches);

    std::vector<std::uint64_t> sids;
    const Round batch_start = sys.round();
    for (std::uint32_t s = 0; s < options.searchers_per_batch; ++s) {
      if (items.empty()) break;
      const ItemId item = items[workload.next_below(items.size())];
      const auto initiator = static_cast<Vertex>(workload.next_below(sys.n()));
      sids.push_back(svc.begin_search(initiator, item));
    }
    sys.run_rounds(svc.search_timeout() + 4);

    for (const std::uint64_t sid : sids) {
      const WorkloadOutcome out = svc.search_outcome(sid);
      ++res.searches;
      if (out.censored && !out.located) {
        // Churned out before locating: censored trial (the guarantee is for
        // nodes that stay long enough to finish their search).
        ++res.censored;
        continue;
      }
      if (out.located) {
        ++res.located;
        const auto rounds = static_cast<double>(out.located_round - batch_start);
        res.locate_rounds.add(rounds);
        res.locate_hist.add(rounds);
      }
      if (out.fetched) {
        ++res.fetched;
        res.fetch_rounds.add(
            static_cast<double>(out.fetched_round - batch_start));
      }
    }
  }

  res.availability.add(avail_fraction);
  res.bits_node_round_max.add(sys.metrics().max_bits_per_node_round().mean());
  res.bits_node_round_mean.add(sys.metrics().mean_bits_per_node_round().mean());
  return res;
}

namespace {

/// Spec keys that set how a trial executes or reports, not what it
/// simulates.
constexpr std::string_view kExecutionKeys[] = {
    "threads", "parallel", "shards",   "csv",         "json",
    "obs",     "obs-file", "obs-host", "trace-sample"};

/// The obs file label of one trial: stack, n and churn per round, then a
/// digest of every other spec key that shapes the run (the trial seed, the
/// churn kind, the protocol and workload knobs), so no two trials of one
/// invocation share a file. Execution keys stay out of the digest: a trial
/// names the same file at every shard count.
std::string obs_trial_label(const ScenarioSpec& spec) {
  std::uint64_t digest = 0;
  for (const std::string& kv : spec.to_key_values()) {
    const std::string_view key = std::string_view(kv).substr(0, kv.find('='));
    if (std::find(std::begin(kExecutionKeys), std::end(kExecutionKeys), key) !=
        std::end(kExecutionKeys)) {
      continue;
    }
    digest = mix64(digest ^ content_hash(reinterpret_cast<const std::uint8_t*>(
                                             kv.data()),
                                         kv.size()));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return spec.protocol + ".n" + std::to_string(spec.n()) + ".c" +
         std::to_string(spec.churn.per_round(spec.n())) + "." + hex;
}

}  // namespace

StoreSearchResult run_store_search_trial(const ScenarioSpec& spec,
                                         ThreadPool* shard_pool) {
  BuiltSystem built =
      build_stack(spec.protocol, spec.system_config(), spec.extras);
  built.system->set_shard_pool(shard_pool);
  // Declared after `built`: the session's trace lanes borrow the network's
  // shard arenas, so it must close first.
  const std::optional<ObsSession> session =
      attach_obs_session(*built.system, spec.extras, obs_trial_label(spec));
  return drive_store_search(*built.system, *built.service, spec.workload,
                            spec.seed);
}

double AvailabilityTrace::availability_fraction() const {
  if (available.empty()) return 0.0;
  std::uint64_t acc = 0;
  for (const auto a : available) acc += a;
  return static_cast<double>(acc) / static_cast<double>(available.size());
}

double AvailabilityTrace::recoverable_fraction() const {
  if (recoverable.empty()) return 0.0;
  std::uint64_t acc = 0;
  for (const auto a : recoverable) acc += a;
  return static_cast<double>(acc) / static_cast<double>(recoverable.size());
}

Round AvailabilityTrace::first_unrecoverable() const {
  for (std::size_t i = 0; i < recoverable.size(); ++i) {
    if (!recoverable[i]) return rounds[i];
  }
  return -1;
}

AvailabilityTrace run_availability_trial(const SystemConfig& config,
                                         double horizon_taus,
                                         std::uint32_t sample_every) {
  P2PSystem sys(config);
  Rng workload(mix64(config.sim.seed ^ 0x61766169ULL));
  AvailabilityTrace trace;

  sys.run_rounds(sys.warmup_rounds());
  const ItemId item = mix64(config.sim.seed ^ 0x4954454dULL) | 1;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto creator = static_cast<Vertex>(workload.next_below(sys.n()));
    if (sys.store_item(creator, item)) break;
    sys.run_round();
  }
  // Give the first landmark wave time to complete before judging
  // availability.
  sys.run_rounds(2 * sys.tau());

  const auto horizon =
      static_cast<std::uint32_t>(horizon_taus * sys.tau());
  for (std::uint32_t r = 0; r < horizon; ++r) {
    sys.run_round();
    if (r % sample_every != 0) continue;
    trace.rounds.push_back(sys.round());
    trace.copies.push_back(sys.store().copies_alive(item));
    trace.landmarks.push_back(sys.store().landmarks_alive(item));
    trace.available.push_back(sys.store().is_available(item) ? 1 : 0);
    trace.recoverable.push_back(sys.store().is_recoverable(item) ? 1 : 0);
  }
  if (const auto* inf = sys.committees().info(item)) {
    trace.generations = inf->generations;
  }
  return trace;
}

}  // namespace churnstore
