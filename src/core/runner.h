// Deterministic Monte-Carlo trial runner.
//
// Runs N independent trials of a workload on `threads` threads, the
// calling thread included (ThreadPool::for_each_helping). Every trial owns
// its own seed (a pure function of the base seed and the trial index) and
// its own simulator, and results land in a vector indexed by trial — so
// the SAME SEED produces BIT-IDENTICAL results on one thread or on all
// cores (tested). Aggregation happens after the barrier, in trial order.
//
//   Runner runner({.threads = 0});   // 0 = the hardware thread count
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
  /// Threads that run trials, the calling thread included; 0 = the hardware
  /// thread count. At 1 every trial runs inline on the calling thread.
  std::size_t threads = 0;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});
  /// Execution options from the spec (the threads key).
  explicit Runner(const ScenarioSpec& spec);

  /// Deterministic per-trial seed: a pure function of (base, trial).
  [[nodiscard]] static std::uint64_t trial_seed(std::uint64_t base,
                                                std::uint32_t trial) noexcept {
    return mix64(base ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
  }

  /// Runs fn(trial) for trial in [0, trials); returns results in trial
  /// order. fn must not touch shared mutable state (each trial builds its
  /// own simulator). Every trial path goes through here, so here is where
  /// trials=0 is rejected (std::invalid_argument naming the key). If a
  /// trial throws, the lowest failing trial's exception is rethrown, and
  /// only once no other trial is running (on the pool every trial runs to
  /// its end first; at one thread the later trials never start).
  template <typename R, typename Fn>
  std::vector<R> map_trials(std::uint32_t trials, Fn&& fn) {
    require_nonzero("trials", trials);
    std::vector<R> out(trials);
    const auto run = [&out, &fn](std::size_t t) {
      out[t] = fn(static_cast<std::uint32_t>(t));
    };
    if (pool_) {
      pool_->for_each_helping(trials, run);
    } else {
      for (std::uint32_t t = 0; t < trials; ++t) run(t);
    }
    return out;
  }

  /// spec.trials store-then-search trials of spec's protocol stack, merged
  /// in trial order. Deterministic in (spec, trials) — independent of
  /// thread count and spec.shards. When the runner has a pool and the spec
  /// asks for intra-round sharding (shards != 1), every trial's system
  /// runs its shard phases on that pool. With two or more trials the trial
  /// loop holds the pool's one slot, so those phases run inline in their
  /// trial; a single trial's phases spread over the pool.
  [[nodiscard]] StoreSearchResult store_search(const ScenarioSpec& spec);

  [[nodiscard]] const RunnerOptions& options() const noexcept {
    return options_;
  }

 private:
  RunnerOptions options_;
  /// threads - 1 workers (the calling thread is the last); null at one
  /// thread.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace churnstore
