// Deterministic Monte-Carlo trial runner.
//
// Runs N independent trials of a workload across the ThreadPool. Every
// trial owns its own seed (a pure function of the base seed and the trial
// index) and its own simulator, and results land in a vector indexed by
// trial — so the SAME SEED produces BIT-IDENTICAL results whether the
// trials execute serially or across all cores (tested). Aggregation happens
// after the barrier, in trial order.
//
//   Runner runner({.threads = 0, .parallel = true});
//   StoreSearchResult merged = runner.store_search(spec);   // spec.trials
//
//   auto results = runner.map_trials<double>(16, [&](std::uint32_t t) {
//     return measure(Runner::trial_seed(spec.seed, t));
//   });
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace churnstore {

struct StoreSearchResult;

struct RunnerOptions {
  std::size_t threads = 0;  ///< worker threads; 0 = hardware concurrency
  bool parallel = true;     ///< false = run trials inline on this thread
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});
  /// Execution options from the spec (threads / parallel keys).
  explicit Runner(const ScenarioSpec& spec);

  /// Deterministic per-trial seed: a pure function of (base, trial).
  [[nodiscard]] static std::uint64_t trial_seed(std::uint64_t base,
                                                std::uint32_t trial) noexcept {
    return mix64(base ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
  }

  /// Runs fn(trial) for trial in [0, trials); returns results in trial
  /// order. fn must not touch shared mutable state (each trial builds its
  /// own simulator). Every trial path goes through here, so here is where
  /// trials=0 is rejected (std::invalid_argument naming the key).
  template <typename R, typename Fn>
  std::vector<R> map_trials(std::uint32_t trials, Fn&& fn) {
    require_nonzero("trials", trials);
    std::vector<R> out(trials);
    if (!options_.parallel || trials <= 1) {
      for (std::uint32_t t = 0; t < trials; ++t) out[t] = fn(t);
    } else {
      pool().parallel_for(trials, [&](std::size_t t) {
        out[t] = fn(static_cast<std::uint32_t>(t));
      });
    }
    return out;
  }

  /// spec.trials store-then-search trials of spec's protocol stack, merged
  /// in trial order. Deterministic in (spec, trials) — independent of
  /// thread count, parallel/serial mode, and spec.shards. When the spec
  /// asks for intra-round sharding (shards != 1), every trial's system runs
  /// its shard tasks on the SAME pool as the trials (nested, caller-helping
  /// — see ThreadPool::for_each_helping), so one pool saturates the cores
  /// whether the parallelism comes from many trials or one big network.
  [[nodiscard]] StoreSearchResult store_search(const ScenarioSpec& spec);

  [[nodiscard]] const RunnerOptions& options() const noexcept {
    return options_;
  }

 private:
  /// The runner's pool (created on first use), shared by the trials and
  /// their systems' shard tasks.
  [[nodiscard]] ThreadPool& pool();

  RunnerOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace churnstore
