#include "core/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/stacks.h"

namespace churnstore {
namespace {

/// Every field a spec key sets.
void expect_same_fields(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.ns, b.ns);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.churn.kind, b.churn.kind);
  EXPECT_EQ(a.churn.multiplier, b.churn.multiplier);
  EXPECT_EQ(a.churn.absolute, b.churn.absolute);
  EXPECT_EQ(a.edge_dynamics, b.edge_dynamics);
  EXPECT_EQ(a.walk.rate_mult, b.walk.rate_mult);
  EXPECT_EQ(a.walk.t_mult, b.walk.t_mult);
  EXPECT_EQ(a.walk.window_mult, b.walk.window_mult);
  EXPECT_EQ(a.protocol_config.use_erasure_coding,
            b.protocol_config.use_erasure_coding);
  EXPECT_EQ(a.workload.items, b.workload.items);
  EXPECT_EQ(a.workload.searchers_per_batch, b.workload.searchers_per_batch);
  EXPECT_EQ(a.workload.batches, b.workload.batches);
  EXPECT_EQ(a.workload.age_taus, b.workload.age_taus);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.extras, b.extras);
}

TEST(ScenarioSpec, DefaultsMatchEmptyCli) {
  expect_same_fields(ScenarioSpec::from_cli(Cli({})), ScenarioSpec{});
}

TEST(ScenarioSpec, ParsesBareKeyValueTokens) {
  const Cli cli({"n=256,512", "protocol=chord", "churn-mult=1.25",
                 "churn=block-sweep", "trials=7", "erasure=true",
                 "measure-rounds=4"});
  const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
  EXPECT_EQ(spec.ns, (std::vector<std::uint32_t>{256, 512}));
  EXPECT_EQ(spec.protocol, "chord");
  EXPECT_DOUBLE_EQ(spec.churn.multiplier, 1.25);
  EXPECT_EQ(spec.churn.kind, AdversaryKind::kBlockSweep);
  EXPECT_EQ(spec.trials, 7u);
  EXPECT_TRUE(spec.protocol_config.use_erasure_coding);
  // Registered keys the common spec does not model land in extras.
  EXPECT_EQ(spec.extra_int("measure-rounds", 0), 4);
}

TEST(ScenarioSpec, DashDashFlagsAndBareTokensAreEquivalent) {
  const ScenarioSpec a =
      ScenarioSpec::from_cli(Cli({"--n=512", "--trials=3"}));
  const ScenarioSpec b = ScenarioSpec::from_cli(Cli({"n=512", "trials=3"}));
  expect_same_fields(a, b);
  EXPECT_EQ(a.ns, (std::vector<std::uint32_t>{512}));
  EXPECT_EQ(a.trials, 3u);
}

TEST(ScenarioSpec, ParsesEveryCommonKey) {
  const Cli cli({"n=128,256", "seed=99", "trials=5",
                 "churn=oldest-first", "churn-mult=0.75",
                 "churn-absolute=6", "edge=regenerate", "walk-rate=2.5",
                 "walk-t=3.5", "walk-window=1.5", "erasure=true",
                 "items=7", "searches=9", "batches=3", "age-taus=4.5",
                 "threads=2", "shards=3", "csv=true", "json=true",
                 "trace-sample=8", "protocol=k-walker"});
  const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
  EXPECT_EQ(spec.protocol, "k-walker");
  EXPECT_EQ(spec.ns, (std::vector<std::uint32_t>{128, 256}));
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.trials, 5u);
  EXPECT_EQ(spec.churn.kind, AdversaryKind::kOldestFirst);
  EXPECT_DOUBLE_EQ(spec.churn.multiplier, 0.75);
  EXPECT_EQ(spec.churn.absolute, 6);
  EXPECT_EQ(spec.edge_dynamics, EdgeDynamics::kRegenerate);
  EXPECT_DOUBLE_EQ(spec.walk.rate_mult, 2.5);
  EXPECT_DOUBLE_EQ(spec.walk.t_mult, 3.5);
  EXPECT_DOUBLE_EQ(spec.walk.window_mult, 1.5);
  EXPECT_TRUE(spec.protocol_config.use_erasure_coding);
  EXPECT_EQ(spec.workload.items, 7u);
  EXPECT_EQ(spec.workload.searchers_per_batch, 9u);
  EXPECT_EQ(spec.workload.batches, 3u);
  EXPECT_DOUBLE_EQ(spec.workload.age_taus, 4.5);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.shards, 3u);
  EXPECT_TRUE(spec.csv);
  EXPECT_TRUE(spec.json);
  EXPECT_EQ(spec.extras,
            (std::map<std::string, std::string>{{"trace-sample", "8"}}));
  // Seeds of 2^63 and more parse in their unsigned spelling; about half
  // of all trial seeds are in that range.
  for (std::uint32_t trial = 0; trial < 16; ++trial) {
    const std::uint64_t seed = Runner::trial_seed(1, trial);
    EXPECT_EQ(
        ScenarioSpec::from_cli(Cli({"seed=" + std::to_string(seed)})).seed,
        seed)
        << trial;
  }
  EXPECT_EQ(
      ScenarioSpec::from_cli(Cli({"seed=18446744073709551615"})).seed,
      ScenarioSpec::from_cli(Cli({"seed=-1"})).seed);
}

TEST(ScenarioSpec, UnknownKeysErrorOutWithAcceptedList) {
  // The classic typo: `shard=4` instead of `shards=4`. Silent acceptance
  // used to run the wrong experiment; now it throws and names the options.
  try {
    (void)ScenarioSpec::from_cli(Cli({"n=128", "shard=4"}));
    FAIL() << "unknown key must not parse";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shard"), std::string::npos);
    EXPECT_NE(msg.find("accepted keys"), std::string::npos);
    EXPECT_NE(msg.find("shards"), std::string::npos) << msg;
  }
  // Every trial is the store -> age -> search one: no `workload` key
  // selects another.
  try {
    (void)ScenarioSpec::from_cli(Cli({"n=128", "workload=kv"}));
    FAIL() << "workload=kv must not parse";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown spec key 'workload'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("accepted keys"), std::string::npos) << msg;
  }
  const auto keys = ScenarioSpec::accepted_keys();
  EXPECT_EQ(std::find(keys.begin(), keys.end(), "workload"), keys.end());
  // The knobs every run holds at one value are constants, not keys, and a
  // scenario's own knobs are registered by the program that runs it.
  // `parallel` is gone because threads=1 runs everything inline; the
  // graph degree and the protocol constants are set in code.
  for (const char* removed :
       {"adaptive-pad", "churn-k", "delta", "h", "rewire-swaps",
        "timeout-taus", "walk-cap", "counters", "horizon-taus", "periods",
        "probes", "shard-sweep", "steps", "chord-replicate",
        "chord-replication", "chord-stabilize", "flood-refresh",
        "probes-per-round", "replication", "replication-mult", "walkers",
        "parallel", "degree", "oversample", "fanout", "landmark-ttl-taus",
        "refresh-taus", "item-bits", "ida-surplus"}) {
    const std::string key = removed;
    EXPECT_EQ(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
    try {
      (void)ScenarioSpec::from_cli(Cli({key + "=1"}));
      FAIL() << key << " must not parse";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown spec key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // Registered extras still parse (obs keys and measure-rounds).
  EXPECT_NO_THROW((void)ScenarioSpec::from_cli(
      Cli({"obs-host=0", "trace-sample=4", "measure-rounds=8"})));
}

TEST(ScenarioSpec, NegativeCountsErrorOutNamingTheKey) {
  // The unsigned cast would wrap these: items=-1 would run 4,294,967,295
  // stores, trials=-1 would die in a bare std::bad_alloc. threads= is
  // capped at kMaxThreads, since a pool starts every thread it is given.
  for (const char* token : {"n=-5", "trials=-1", "items=-1", "shards=-1",
                            "items=4294967296", "threads=1025"}) {
    const std::string kv = token;
    const std::string key = kv.substr(0, kv.find('='));
    try {
      (void)ScenarioSpec::from_cli(Cli({kv}));
      FAIL() << kv << " must not parse";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
    }
  }
  // Signed keys keep their meaning: seed=-1 is a seed, churn-absolute=-1
  // selects the churn formula.
  ScenarioSpec spec;
  ASSERT_NO_THROW(spec = ScenarioSpec::from_cli(
                      Cli({"seed=-1", "churn-absolute=-1"})));
  EXPECT_EQ(spec.seed, static_cast<std::uint64_t>(-1));
  EXPECT_EQ(spec.churn.absolute, -1);
  // The cap itself parses (from_cli builds no pool), and 0 still means
  // the hardware thread count.
  EXPECT_EQ(ScenarioSpec::from_cli(Cli({"threads=1024"})).threads, 1024u);
  EXPECT_EQ(ScenarioSpec::from_cli(Cli({"threads=0"})).threads, 0u);
}

TEST(ScenarioSpec, CountReadersRejectNegativeScenarioKeys) {
  // Scenario keys are read through these readers: periods=-1 would
  // otherwise run committee for 4,294,967,295 refresh periods.
  try {
    (void)cli_count(Cli({"periods=-1"}), "periods", 24);
    FAIL() << "periods=-1 must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'periods'"), std::string::npos);
  }
  EXPECT_THROW((void)cli_count_list(Cli({"n=256,-4"}), "n", {1024}),
               std::invalid_argument);
  EXPECT_EQ(cli_count(Cli({"periods=8"}), "periods", 24), 8u);
  EXPECT_EQ(cli_count_list(Cli({}), "n", {256, 512}),
            (std::vector<std::uint32_t>{256, 512}));
}

TEST(ScenarioSpec, MalformedValuesErrorOutNamingTheKey) {
  // n=256x used to run n=256, csv=ture the text table, and n=abc failed
  // with the bare message "stoll".
  for (const char* token : {"n=256x", "n=abc", "csv=ture", "churn-mult=nan",
                            "age-taus=0.5.9", "n=256,,512", "trials="}) {
    const std::string kv = token;
    const std::string key = kv.substr(0, kv.find('='));
    try {
      (void)ScenarioSpec::from_cli(Cli({kv}));
      FAIL() << kv << " must not parse";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
    }
  }
  // The extras readers (scenario knobs, obs keys) share the strict
  // parsers: a prefix parse would read trace-sample=8x as 8.
  const std::map<std::string, std::string> extras = {
      {"trace-sample", "8x"}, {"obs-host", "1.5.0"}};
  EXPECT_THROW((void)extras_int(extras, "trace-sample", 1),
               std::invalid_argument);
  EXPECT_THROW((void)extras_int(extras, "obs-host", 1), std::invalid_argument);
  EXPECT_EQ(extras_int(extras, "absent", 16), 16);
}

TEST(ScenarioSpec, FixedKeysRejectEveryOtherValueNamingTheKey) {
  // The chord scenario runs one cell per (n, churn level) and checks
  // `trials` through require_exactly: any value but 1 would print the
  // one-trial table as if it had been honoured.
  for (const std::uint64_t trials : {0u, 2u, 3u}) {
    try {
      require_exactly("trials", trials, 1);
      FAIL() << "trials=" << trials << " must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'trials' must be 1, got " + std::to_string(trials)),
                std::string::npos)
          << msg;
    }
  }
  EXPECT_NO_THROW(require_exactly("trials", 1, 1));
}

TEST(ScenarioSpec, AcceptExtraKeyRegistersNewKnobs) {
  EXPECT_THROW((void)ScenarioSpec::from_cli(Cli({"my-plugin-knob=1"})),
               std::invalid_argument);
  ScenarioSpec::accept_extra_key("my-plugin-knob");
  const ScenarioSpec spec =
      ScenarioSpec::from_cli(Cli({"my-plugin-knob=42"}));
  EXPECT_EQ(spec.extra_int("my-plugin-knob", 0), 42);
  const auto keys = ScenarioSpec::accepted_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "my-plugin-knob"),
            keys.end());
}

TEST(ScenarioSpec, SystemConfigReflectsSpec) {
  ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=512", "seed=4", "churn-mult=0.25", "edge=static",
           "erasure=true"}));
  const SystemConfig cfg = spec.system_config();
  EXPECT_EQ(cfg.sim.n, 512u);
  EXPECT_EQ(cfg.sim.seed, 4u);
  EXPECT_DOUBLE_EQ(cfg.sim.churn.multiplier, 0.25);
  EXPECT_EQ(cfg.sim.edge_dynamics, EdgeDynamics::kStatic);
  EXPECT_TRUE(cfg.protocol.use_erasure_coding);
  EXPECT_EQ(spec.system_config(64).sim.n, 64u);
}

TEST(ScenarioSpec, WithHelpersProduceVariants) {
  const ScenarioSpec spec;
  EXPECT_EQ(spec.with_n(99).n(), 99u);
  const ScenarioSpec none = spec.with_churn_multiplier(0.0);
  EXPECT_EQ(none.churn.kind, AdversaryKind::kNone);
  const ScenarioSpec more = spec.with_churn_multiplier(2.0);
  EXPECT_EQ(more.churn.kind, AdversaryKind::kUniform);
  EXPECT_DOUBLE_EQ(more.churn.multiplier, 2.0);
  EXPECT_EQ(spec.with_seed(123).seed, 123u);
}

TEST(ScenarioSpec, EnumNamesRoundTrip) {
  for (const AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kUniform,
        AdversaryKind::kBlockSweep, AdversaryKind::kRegionRepeat,
        AdversaryKind::kOldestFirst, AdversaryKind::kYoungestFirst,
        AdversaryKind::kAdaptive}) {
    EXPECT_EQ(adversary_from_name(to_name(k)), k);
  }
  for (const EdgeDynamics d : {EdgeDynamics::kStatic, EdgeDynamics::kRewire,
                               EdgeDynamics::kRegenerate}) {
    EXPECT_EQ(edge_dynamics_from_name(to_name(d)), d);
  }
  EXPECT_THROW((void)adversary_from_name("martian"), std::invalid_argument);
  EXPECT_THROW((void)edge_dynamics_from_name("wormhole"),
               std::invalid_argument);
}

TEST(Stacks, CatalogContainsBuiltins) {
  const auto catalog = stack_catalog();
  auto has = [&catalog](const std::string& name) {
    for (const auto& [stack, summary] : catalog) {
      if (stack == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("churnstore"));
  EXPECT_TRUE(has("chord"));
  EXPECT_TRUE(has("flooding"));
  EXPECT_TRUE(has("k-walker"));
  EXPECT_TRUE(has("sqrt-replication"));
  EXPECT_THROW((void)build_stack("no-such-stack", SystemConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace churnstore
