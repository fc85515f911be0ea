// Protocol-interface conformance shared by the paper stack and every
// baseline: each registered stack must attach cleanly, survive rounds under
// churn, and drive the identical store -> search workload through its
// StorageService facade. This is the contract that makes `protocol=<name>`
// a drop-in swap in every scenario.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/flooding.h"
#include "core/experiment.h"
#include "core/protocol.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/stacks.h"

namespace churnstore {
namespace {

class StackConformance : public ::testing::TestWithParam<const char*> {};

ScenarioSpec conformance_spec(const std::string& protocol) {
  ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=128", "seed=17", "items=1", "searches=4", "batches=1",
           "age-taus=1", "churn-mult=0.25"}));
  spec.protocol = protocol;
  return spec;
}

TEST_P(StackConformance, BuildsAttachedProtocolsAndService) {
  const ScenarioSpec spec = conformance_spec(GetParam());
  const BuiltSystem built =
      build_stack(spec.protocol, spec.system_config(), spec.extras);
  ASSERT_NE(built.system, nullptr);
  ASSERT_NE(built.service, nullptr);
  EXPECT_FALSE(built.system->protocols().empty());
  for (const auto& p : built.system->protocols()) {
    EXPECT_TRUE(p->attached()) << p->name();
    EXPECT_FALSE(p->name().empty());
  }
  EXPECT_GT(built.service->search_timeout(), 0u);
}

TEST_P(StackConformance, RunsRoundsUnderChurn) {
  const ScenarioSpec spec = conformance_spec(GetParam());
  const BuiltSystem built =
      build_stack(spec.protocol, spec.system_config(), spec.extras);
  const Round before = built.system->round();
  built.system->run_rounds(2 * built.system->tau());
  EXPECT_EQ(built.system->round(),
            before + static_cast<Round>(2 * built.system->tau()));
  EXPECT_GT(built.system->network().churn_events(), 0u);
}

TEST_P(StackConformance, StoreThenSearchSucceedsWithoutChurn) {
  ScenarioSpec spec = conformance_spec(GetParam());
  spec = spec.with_churn_multiplier(0.0);
  const BuiltSystem built =
      build_stack(spec.protocol, spec.system_config(), spec.extras);
  P2PSystem& sys = *built.system;
  StorageService& svc = *built.service;

  sys.run_rounds(sys.warmup_rounds());
  const ItemId item = 0xC0FFEE;
  bool stored = false;
  for (int attempt = 0; attempt < 32 && !stored; ++attempt) {
    stored = svc.try_store(7, item);
    if (!stored) sys.run_round();
  }
  ASSERT_TRUE(stored) << "stack never became ready to store";
  sys.run_rounds(2 * sys.tau());
  EXPECT_GT(svc.copies_alive(item), 0u);

  const auto sid = svc.begin_search(100, item);
  const Round begun = sys.round();
  const Round judged = begun + static_cast<Round>(svc.search_timeout()) + 4;
  sys.run_rounds(svc.search_timeout() + 4);
  const WorkloadOutcome out = svc.search_outcome(sid);
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.located) << "search failed with zero churn";
  // Rounds are absolute: the locate lands inside the window the driver
  // judges, and a fetch never precedes its locate.
  EXPECT_GE(out.located_round, begun);
  EXPECT_LE(out.located_round, judged);
  EXPECT_LE(out.fetched, out.located);
  if (out.fetched) {
    EXPECT_GE(out.fetched_round, out.located_round);
  }
}

TEST_P(StackConformance, SearchForAnUnstoredItemFinishesUnlocated) {
  // A miss finishes too: "outcomes stabilize after search_timeout()" holds
  // for a search nothing can answer, with and without churn.
  for (const double churn : {0.0, 0.25}) {
    const ScenarioSpec spec =
        conformance_spec(GetParam()).with_churn_multiplier(churn);
    const BuiltSystem built =
        build_stack(spec.protocol, spec.system_config(), spec.extras);
    P2PSystem& sys = *built.system;
    StorageService& svc = *built.service;
    sys.run_rounds(sys.warmup_rounds());
    const auto sid = svc.begin_search(100, 0xBADF00D);
    sys.run_rounds(svc.search_timeout() + 4);
    const WorkloadOutcome out = svc.search_outcome(sid);
    EXPECT_TRUE(out.done) << "churn-mult=" << churn;
    EXPECT_FALSE(out.located) << "churn-mult=" << churn;
  }
}

TEST_P(StackConformance, WorkloadRunsThroughGenericTrial) {
  const ScenarioSpec spec = conformance_spec(GetParam());
  const StoreSearchResult res = run_store_search_trial(spec);
  EXPECT_GT(res.searches, 0u);
  EXPECT_LE(res.located, res.searches);
  EXPECT_LE(res.fetched, res.searches);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackConformance,
                         ::testing::Values("churnstore", "chord", "flooding",
                                           "k-walker", "sqrt-replication"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Protocol, BaseAttachSubscribesChurn) {
  class Recorder final : public Protocol {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "recorder";
    }
    void on_churn(Vertex, PeerId, PeerId) override { ++churns; }
    int churns = 0;
  };

  SystemConfig cfg;
  cfg.sim.n = 32;
  cfg.sim.churn.kind = AdversaryKind::kUniform;
  cfg.sim.churn.absolute = 3;
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(recorder));
  P2PSystem sys(cfg, std::move(mods));
  EXPECT_TRUE(rec->attached());
  sys.run_rounds(2);
  EXPECT_EQ(rec->churns, 6);
}

TEST(Protocol, MessageDispatchStopsAtConsumer) {
  class Sink final : public Protocol {
   public:
    explicit Sink(bool consume) : consume_(consume) {}
    [[nodiscard]] std::string_view name() const noexcept override {
      return "sink";
    }
    bool on_message(Vertex, const Message&, ShardContext&) override {
      ++seen;
      return consume_;
    }
    int seen = 0;

   private:
    bool consume_;
  };
  class Injector final : public Protocol {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "injector";
    }
    void on_round_begin() override {
      Message m;
      m.src = net().peer_at(0);
      m.dst = net().peer_at(1);
      m.type = MsgType::kProbe;
      net().send(0, m);
    }
  };

  SystemConfig cfg;
  cfg.sim.n = 16;
  cfg.sim.degree = 4;
  cfg.sim.churn.kind = AdversaryKind::kNone;
  auto injector = std::make_unique<Injector>();
  auto first = std::make_unique<Sink>(/*consume=*/true);
  auto second = std::make_unique<Sink>(/*consume=*/false);
  Sink* first_p = first.get();
  Sink* second_p = second.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(injector));
  mods.push_back(std::move(first));
  mods.push_back(std::move(second));
  P2PSystem sys(cfg, std::move(mods));
  sys.run_rounds(3);
  EXPECT_EQ(first_p->seen, 3);
  EXPECT_EQ(second_p->seen, 0) << "consumed messages must not propagate";
}

TEST(Protocol, FindProtocolByTypeAndName) {
  SystemConfig cfg;
  cfg.sim.n = 64;
  P2PSystem sys(cfg);
  ASSERT_NE(sys.find_protocol<TokenSoup>(), nullptr);
  EXPECT_EQ(sys.find_protocol<TokenSoup>()->name(), "token-soup");
  EXPECT_NE(sys.find_protocol<CommitteeManager>(), nullptr);
  EXPECT_EQ(sys.find_protocol<FloodingStore>(), nullptr);
}

}  // namespace
}  // namespace churnstore
