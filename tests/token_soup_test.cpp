#include "walk/token_soup.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/divergence.h"

namespace churnstore {
namespace {

SimConfig net_config(std::uint32_t n, std::int64_t churn_abs = 0) {
  SimConfig c;
  c.n = n;
  c.degree = 8;
  c.seed = 11;
  c.churn.kind = churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.churn.absolute = churn_abs;
  c.edge_dynamics = EdgeDynamics::kRewire;
  return c;
}

TEST(TokenSoup, DerivedConstantsScaleWithLogN) {
  WalkConfig wc;
  EXPECT_LT(walk_length(256, wc), walk_length(4096, wc));
  EXPECT_LT(walks_per_round(256, wc), walks_per_round(65536, wc));
  EXPECT_GE(forward_cap(1024, wc), 2 * walks_per_round(1024, wc));
  EXPECT_EQ(tau_rounds(1024, wc), walk_length(1024, wc) + 2);
}

TEST(TokenSoup, ConservationWithoutChurn) {
  Network net(net_config(128));
  TokenSoup soup(net, WalkConfig{});
  const std::uint32_t rounds = 3 * soup.tau();
  for (std::uint32_t i = 0; i < rounds; ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  const auto& m = net.metrics();
  // No churn: every spawned token is either still alive or completed.
  EXPECT_EQ(m.tokens_spawned(), m.tokens_completed() + soup.tokens_alive());
  EXPECT_EQ(m.tokens_lost(), 0u);
}

TEST(TokenSoup, ChurnDestroysSomeTokens) {
  Network net(net_config(128, /*churn_abs=*/8));
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < 3 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  const auto& m = net.metrics();
  EXPECT_GT(m.tokens_lost(), 0u);
  EXPECT_EQ(m.tokens_spawned(),
            m.tokens_completed() + m.tokens_lost() + soup.tokens_alive());
}

TEST(TokenSoup, ConservationUnderChurnForEveryShardCount) {
  // tokens_alive() is maintained as per-shard counters settled by the
  // round merge (never a queue scan), so conservation over a churny run
  // pins those counters against the real queue population: any drift —
  // a handoff miscounted, a churn clear missed, a probe not added —
  // breaks the balance. Probes are injected mid-run to exercise the
  // serial-context adjustments too.
  for (const std::uint32_t shards : {1u, 3u, 16u}) {
    SimConfig c = net_config(192, /*churn_abs=*/6);
    c.shards = shards;
    Network net(c);
    TokenSoup soup(net, WalkConfig{});
    std::uint64_t injected = 0;
    for (std::uint32_t i = 0; i < 50; ++i) {
      net.begin_round();
      if (i % 7 == 3) {
        soup.inject_probe(i % 192, /*tag=*/i, /*steps=*/5 + i % 9);
        ++injected;
      }
      soup.step();
      net.deliver();
    }
    const auto& m = net.metrics();
    EXPECT_GT(m.tokens_lost(), 0u) << "shards=" << shards;
    EXPECT_EQ(m.tokens_spawned() + injected,
              m.tokens_completed() + m.tokens_lost() + soup.tokens_alive())
        << "shards=" << shards;
  }
}

TEST(TokenSoup, ProbesCompleteInExactlyTStepsWithoutCapPressure) {
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  soup.set_spawning(false);  // probes only: no queueing possible
  Round done_round = -1;
  soup.set_probe_hook([&](std::uint64_t tag, Vertex, Round r) {
    EXPECT_EQ(tag, 99u);
    done_round = r;
  });
  net.begin_round();
  const Round start = net.round();
  soup.inject_probe(3, 99, 10);
  // The probe takes its first step this round, so it completes at
  // start + 9 (10 steps, one per round, first at `start`).
  for (int i = 0; i < 12 && done_round < 0; ++i) {
    if (i > 0) net.begin_round();
    soup.step();
    net.deliver();
  }
  EXPECT_EQ(done_round, start + 9);
}

TEST(TokenSoup, ProbeWithTheLargestTagCompletesCarryingIt) {
  // A token keeps its source (a probe's tag) in the top 48 bits of its
  // word: the largest tag must come back whole, with nothing bled in from
  // the step field or the probe flag.
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  soup.set_spawning(false);
  std::vector<std::uint64_t> tags;
  soup.set_probe_hook(
      [&](std::uint64_t tag, Vertex, Round) { tags.push_back(tag); });
  net.begin_round();
  soup.inject_probe(5, kMaxPeerId, 7);
  soup.inject_probe(9, 1, 1);
  for (int i = 0; i < 10 && tags.size() < 2; ++i) {
    if (i > 0) net.begin_round();
    soup.step();
    net.deliver();
  }
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, kMaxPeerId}));
}

TEST(TokenSoup, ProbeTagAbove48BitsIsRejected) {
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  EXPECT_THROW(soup.inject_probe(0, kMaxPeerId + 1, 4), std::invalid_argument);
  EXPECT_THROW(soup.inject_probe(0, ~std::uint64_t{0}, 4),
               std::invalid_argument);
  EXPECT_EQ(soup.tokens_alive(), 0u);
}

TEST(TokenSoup, ProbeStepsOutsideTheStepFieldAreRejected) {
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  EXPECT_THROW(soup.inject_probe(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(soup.inject_probe(0, 1, 32768), std::invalid_argument);
  EXPECT_EQ(soup.tokens_alive(), 0u);
  soup.inject_probe(0, 1, 32767);  // the largest step count still fits
  EXPECT_EQ(soup.tokens_alive(), 1u);
}

TEST(TokenSoup, WalkLengthOutsideTheStepFieldIsRejected) {
  // n=16: walk-t=12000 asks for 33,271 steps, one past the 15-bit step
  // field by far; a negative walk-t asks for a negative length. Both must
  // fail at attach, naming walk-t, in every build.
  for (const double t_mult : {12000.0, -1.0}) {
    Network net(net_config(16));
    WalkConfig wc;
    wc.t_mult = t_mult;
    try {
      TokenSoup soup(net, wc);
      ADD_FAILURE() << "walk-t=" << t_mult << " attached";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("walk-t"), std::string::npos)
          << e.what();
    }
  }
  // The largest length that fits still attaches: lround(t * ln 16) = 32767.
  Network net(net_config(16));
  WalkConfig wc;
  wc.t_mult = 32767.0 / std::log(16.0);
  TokenSoup soup(net, wc);
  EXPECT_EQ(soup.walk_length(), 32767u);
}

TEST(TokenSoup, WalkRateOutsideItsRangeIsRejected) {
  // A negative walk-rate used to wrap walks_per_round's uint32 cast to
  // ~4.29e9 walks per node, and 1e12 asks for trillions: both must fail at
  // attach, naming walk-rate, before any queue is reserved.
  for (const double rate : {-1.0, 1e12}) {
    Network net(net_config(16));
    WalkConfig wc;
    wc.rate_mult = rate;
    try {
      TokenSoup soup(net, wc);
      ADD_FAILURE() << "walk-rate=" << rate << " attached";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("walk-rate"), std::string::npos)
          << e.what();
    }
  }
  // Zero still starts one walk per node per round.
  Network net(net_config(16));
  WalkConfig wc;
  wc.rate_mult = 0;
  TokenSoup soup(net, wc);
  EXPECT_EQ(soup.walks_per_round(), 1u);
}

TEST(TokenSoup, WalkWindowOutsideItsRangeIsRejected) {
  // A negative walk-window used to wrap the sample ring's slot count; a
  // window past 64 tau is rejected too. Both name walk-window.
  for (const double window : {-1.0, 65.0}) {
    Network net(net_config(16));
    WalkConfig wc;
    wc.window_mult = window;
    try {
      TokenSoup soup(net, wc);
      ADD_FAILURE() << "walk-window=" << window << " attached";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("walk-window"), std::string::npos)
          << e.what();
    }
  }
  Network net(net_config(16));
  WalkConfig wc;
  wc.window_mult = 0;
  TokenSoup soup(net, wc);
  EXPECT_GT(soup.tau(), 0u);
}

TEST(TokenSoup, SamplesAreRecordedWithSources) {
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < 2 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  std::size_t total = 0;
  for (Vertex v = 0; v < 64; ++v) total += soup.samples(v).total();
  EXPECT_GT(total, 0u);
  // Every recorded source must be (or have been) a real peer id.
  PeerList recent;
  soup.samples(0).recent_distinct(0, recent);
  for (const PeerId p : recent) EXPECT_NE(p, kNoPeer);
}

TEST(TokenSoup, ChurnClearsVertexState) {
  Network net(net_config(64, 4));
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  const auto churned = net.begin_round();
  ASSERT_FALSE(churned.empty());
  // A freshly churned vertex has an empty sample buffer.
  EXPECT_TRUE(soup.samples(churned[0]).empty());
  soup.step();
  net.deliver();
}

TEST(TokenSoup, DestinationsAreNearUniform) {
  // Soup-theorem smoke check at unit scale: start one probe per vertex, let
  // them mix for T steps, look at the arrival distribution.
  Network net(net_config(256));
  TokenSoup soup(net, WalkConfig{});
  soup.set_spawning(false);
  std::vector<std::uint64_t> arrivals(256, 0);
  soup.set_probe_hook(
      [&](std::uint64_t, Vertex d, Round) { ++arrivals[d]; });
  const std::uint32_t reps = 40;
  net.begin_round();
  for (Vertex v = 0; v < 256; ++v)
    for (std::uint32_t rep = 0; rep < reps; ++rep)
      soup.inject_probe(v, v, soup.walk_length());
  for (std::uint32_t i = 0; i < soup.walk_length() + 2; ++i) {
    if (i > 0) net.begin_round();
    soup.step();
    net.deliver();
  }
  const auto rep = uniformity_report(arrivals);
  EXPECT_EQ(rep.total, 256u * reps);
  EXPECT_LT(rep.tvd, 0.15);
  EXPECT_GT(rep.min_prob_times_n, 0.3);
  EXPECT_LT(rep.max_prob_times_n, 2.0);
}

TEST(TokenSoup, CapQueueingKicksInUnderOverload) {
  // Overload one vertex: twice cap() probes in one round, so at least
  // cap() tokens must queue (and the queue must be visible in the metrics).
  Network net(net_config(64));
  TokenSoup soup(net, WalkConfig{});
  net.begin_round();
  for (std::uint32_t i = 0; i < 2 * soup.cap(); ++i) {
    soup.inject_probe(0, 0, soup.walk_length());
  }
  soup.step();
  net.deliver();
  EXPECT_GE(net.metrics().tokens_queued(), soup.cap());
  EXPECT_GT(soup.tokens_alive(), 0u);
}

TEST(TokenSoup, AutoCapCoversSteadyStateLoad) {
  // Default cap = 2 * W * T: queueing should be rare enough that nearly all
  // tokens complete on schedule (Lemma 1's "every token forwarded once per
  // round w.h.p.").
  Network net(net_config(128));
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < 4 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  const auto& m = net.metrics();
  // Queue events stay a tiny fraction of total forwarding work.
  const double queued_frac =
      static_cast<double>(m.tokens_queued()) /
      static_cast<double>(m.tokens_spawned() * soup.walk_length());
  EXPECT_LT(queued_frac, 0.01);
  // Completions keep pace with spawning after the pipeline fills.
  EXPECT_GT(m.tokens_completed(),
            m.tokens_spawned() / 2);
}

}  // namespace
}  // namespace churnstore
