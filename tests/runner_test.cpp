#include "core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"

namespace churnstore {
namespace {

ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=128", "trials=3", "items=1", "searches=3", "batches=1",
           "age-taus=1"}));
  spec.protocol = protocol;
  return spec;
}

void expect_identical(const StoreSearchResult& a, const StoreSearchResult& b) {
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.located, b.located);
  EXPECT_EQ(a.fetched, b.fetched);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(a.locate_rounds.count(), b.locate_rounds.count());
  EXPECT_DOUBLE_EQ(a.locate_rounds.mean(), b.locate_rounds.mean());
  EXPECT_EQ(a.availability.count(), b.availability.count());
  EXPECT_DOUBLE_EQ(a.availability.mean(), b.availability.mean());
  EXPECT_DOUBLE_EQ(a.availability.ci95_halfwidth(),
                   b.availability.ci95_halfwidth());
  EXPECT_DOUBLE_EQ(a.bits_node_round_max.mean(), b.bits_node_round_max.mean());
  EXPECT_DOUBLE_EQ(a.bits_node_round_mean.mean(),
                   b.bits_node_round_mean.mean());
}

TEST(Runner, TrialSeedIsPureAndDiverse) {
  EXPECT_EQ(Runner::trial_seed(1, 0), Runner::trial_seed(1, 0));
  EXPECT_NE(Runner::trial_seed(1, 0), Runner::trial_seed(1, 1));
  EXPECT_NE(Runner::trial_seed(1, 0), Runner::trial_seed(2, 0));
}

TEST(Runner, MapTrialsPreservesTrialOrder) {
  Runner parallel(RunnerOptions{.threads = 4});
  const auto out = parallel.map_trials<std::uint32_t>(
      64, [](std::uint32_t t) { return t * t; });
  ASSERT_EQ(out.size(), 64u);
  for (std::uint32_t t = 0; t < 64; ++t) EXPECT_EQ(out[t], t * t);
}

TEST(Runner, MapTrialsActuallyRunsConcurrently) {
  Runner runner(RunnerOptions{.threads = 4});
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  runner.map_trials<int>(8, [&](std::uint32_t) {
    const int now = ++inside;
    int expect = peak.load();
    while (now > expect && !peak.compare_exchange_weak(expect, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --inside;
    return 0;
  });
  EXPECT_GT(peak.load(), 1) << "trials never overlapped";
}

TEST(Runner, MapTrialsRunsEveryTrialBeforeRethrowing) {
  // Trial 0 throws at once while its siblings are still running: map_trials
  // must not return (and free the results they write) before every one of
  // them has finished, and then it reports trial 0's error.
  Runner runner(RunnerOptions{.threads = 4});
  std::atomic<int> finished{0};
  try {
    (void)runner.map_trials<int>(8, [&finished](std::uint32_t t) {
      if (t == 0) throw std::runtime_error("trial 0 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
      return static_cast<int>(t);
    });
    FAIL() << "trial 0's exception must reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 0 failed");
  }
  EXPECT_EQ(finished.load(), 7);
}

TEST(Runner, OneThreadRunsTrialsOnTheCallingThread) {
  // threads=1 counts the calling thread: no worker exists, and every trial
  // runs right here.
  Runner runner(RunnerOptions{.threads = 1});
  const auto ids = runner.map_trials<std::thread::id>(
      4, [](std::uint32_t) { return std::this_thread::get_id(); });
  for (const std::thread::id id : ids) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Runner, SerialAndParallelStoreSearchAreBitIdentical) {
  const ScenarioSpec spec = small_spec("churnstore");
  Runner serial(RunnerOptions{.threads = 1});
  Runner parallel(RunnerOptions{.threads = 4});
  const StoreSearchResult a = serial.store_search(spec);
  const StoreSearchResult b = parallel.store_search(spec);
  EXPECT_GT(a.searches, 0u);
  expect_identical(a, b);
}

TEST(Runner, SerialAndParallelAgreeForBaselineStack) {
  const ScenarioSpec spec = small_spec("sqrt-replication");
  Runner serial(RunnerOptions{.threads = 1});
  Runner parallel(RunnerOptions{.threads = 4});
  expect_identical(serial.store_search(spec), parallel.store_search(spec));
}

TEST(Runner, StoreSearchIsRepeatableAndMergesEveryTrial) {
  const ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=128", "seed=3", "trials=3", "churn=none", "items=1",
           "searches=3", "batches=1"}));
  Runner runner;
  const StoreSearchResult a = runner.store_search(spec);
  const StoreSearchResult b = runner.store_search(spec);
  expect_identical(a, b);
  EXPECT_EQ(a.availability.count(), 3u);  // one observation per trial
}

TEST(Runner, ZeroTrialsErrorOutNamingTheKey) {
  // trials=0 would run nothing and print all-zero rows as a measurement.
  ScenarioSpec spec = small_spec("churnstore");
  spec.trials = 0;
  Runner runner(RunnerOptions{.threads = 1});
  try {
    (void)runner.store_search(spec);
    FAIL() << "trials=0 must not run";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'trials'"), std::string::npos);
  }
  bool ran = false;
  EXPECT_THROW(runner.map_trials<int>(0,
                                      [&ran](std::uint32_t) {
                                        ran = true;
                                        return 0;
                                      }),
               std::invalid_argument);
  EXPECT_FALSE(ran);
}

TEST(Runner, OptionsComeFromSpec) {
  ScenarioSpec spec;
  spec.threads = 3;
  const Runner runner(spec);
  EXPECT_EQ(runner.options().threads, 3u);
}

}  // namespace
}  // namespace churnstore
