#include "core/runner.h"

#include <algorithm>
#include <thread>

#include "core/experiment.h"

namespace churnstore {

Runner::Runner(RunnerOptions options) : options_(options) {
  const std::size_t threads =
      options_.threads != 0
          ? options_.threads
          : std::max(1u, std::thread::hardware_concurrency());
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

Runner::Runner(const ScenarioSpec& spec)
    : Runner(RunnerOptions{spec.threads}) {}

StoreSearchResult Runner::store_search(const ScenarioSpec& spec) {
  // Lend the trial pool to each trial's sharded round engine; at one
  // thread the engine runs serially too. Either way the result is the same.
  ThreadPool* shard_pool = spec.shards != 1 ? pool_.get() : nullptr;
  const auto results = map_trials<StoreSearchResult>(
      spec.trials, [&spec, shard_pool](std::uint32_t t) {
        return run_store_search_trial(
            spec.with_seed(trial_seed(spec.seed, t)), shard_pool);
      });
  // map_trials rejects trials=0, so there is always a first trial.
  StoreSearchResult total = results.front();
  for (std::size_t t = 1; t < results.size(); ++t) total.merge(results[t]);
  return total;
}

}  // namespace churnstore
