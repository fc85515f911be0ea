#include "core/runner.h"

#include "core/experiment.h"

namespace churnstore {

Runner::Runner(RunnerOptions options) : options_(options) {}

Runner::Runner(const ScenarioSpec& spec)
    : options_(RunnerOptions{spec.threads, spec.parallel}) {}

ThreadPool& Runner::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.threads);
  return *pool_;
}

StoreSearchResult Runner::store_search(const ScenarioSpec& spec) {
  // Lend the trial pool to each trial's sharded round engine. Serial mode
  // keeps the engine serial too, preserving the bit-identity contract.
  ThreadPool* shard_pool =
      (options_.parallel && spec.shards != 1) ? &pool() : nullptr;
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
