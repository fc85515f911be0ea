#include "net/network.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>

namespace churnstore {
namespace {

SimConfig basic_config(std::uint32_t n, std::int64_t churn_abs = 0) {
  SimConfig c;
  c.n = n;
  c.degree = 4;
  c.seed = 7;
  c.churn.kind = churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.churn.absolute = churn_abs;
  c.edge_dynamics = EdgeDynamics::kStatic;
  return c;
}

TEST(Network, InitialPopulation) {
  Network net(basic_config(32));
  EXPECT_EQ(net.n(), 32u);
  EXPECT_EQ(net.round(), 0);
  std::set<PeerId> ids;
  for (Vertex v = 0; v < 32; ++v) {
    const PeerId p = net.peer_at(v);
    EXPECT_NE(p, kNoPeer);
    EXPECT_TRUE(ids.insert(p).second) << "duplicate peer id";
    ASSERT_TRUE(net.find_vertex(p).has_value());
    EXPECT_EQ(*net.find_vertex(p), v);
    EXPECT_TRUE(net.is_alive(p));
  }
}

TEST(Network, ChurnReplacesPeers) {
  Network net(basic_config(32, /*churn_abs=*/4));
  std::set<PeerId> original;
  for (Vertex v = 0; v < 32; ++v) original.insert(net.peer_at(v));

  const auto churned = net.begin_round();
  EXPECT_EQ(churned.size(), 4u);
  for (const Vertex v : churned) {
    EXPECT_FALSE(original.count(net.peer_at(v)));
    EXPECT_EQ(net.birth_round(v), 1);
  }
  EXPECT_EQ(net.churn_events(), 4u);
}

TEST(Network, DeadPeerIsUnreachable) {
  Network net(basic_config(16, 1));
  const auto churned = net.begin_round();
  ASSERT_EQ(churned.size(), 1u);
  // Capture a peer, churn until it dies.
  Network net2(basic_config(16, 4));
  const PeerId victim_watch = net2.peer_at(0);
  for (int i = 0; i < 64 && net2.is_alive(victim_watch); ++i) net2.begin_round();
  EXPECT_FALSE(net2.is_alive(victim_watch));
  EXPECT_EQ(net2.find_vertex(victim_watch), std::nullopt);
}

TEST(Network, MessageDeliveryToLivePeer) {
  Network net(basic_config(8));
  net.begin_round();
  Message m;
  m.src = net.peer_at(0);
  m.dst = net.peer_at(5);
  m.type = MsgType::kProbe;
  m.words = {42};
  net.send(0, m);
  net.deliver();
  ASSERT_EQ(net.inbox(5).size(), 1u);
  EXPECT_EQ(net.inbox(5)[0].words[0], 42u);
  EXPECT_EQ(net.metrics().total_messages(), 1u);
  EXPECT_EQ(net.metrics().dropped_messages(), 0u);
}

TEST(Network, MessageToDeadPeerDropped) {
  Network net(basic_config(8));
  const PeerId ghost = 0xdeadULL;  // never existed
  net.begin_round();
  Message m;
  m.src = net.peer_at(0);
  m.dst = ghost;
  m.type = MsgType::kProbe;
  net.send(0, m);
  net.deliver();
  EXPECT_EQ(net.metrics().dropped_messages(), 1u);
}

TEST(Network, InboxClearedEachRound) {
  Network net(basic_config(8));
  net.begin_round();
  Message m;
  m.src = net.peer_at(0);
  m.dst = net.peer_at(1);
  m.type = MsgType::kProbe;
  net.send(0, m);
  net.deliver();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  net.begin_round();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, BitAccountingChargesBothEnds) {
  Network net(basic_config(8));
  net.begin_round();
  Message m;
  m.src = net.peer_at(0);
  m.dst = net.peer_at(1);
  m.type = MsgType::kProbe;
  m.words = {1, 2, 3};
  const std::uint64_t bits = m.size_bits();
  EXPECT_EQ(bits, 3 * 64 + 3 * 64u);
  net.send(0, m);
  net.deliver();
  EXPECT_EQ(net.metrics().total_bits(), 2 * bits);  // sender + receiver
  // Max-per-node-round average over the single finished round equals bits.
  EXPECT_DOUBLE_EQ(net.metrics().max_bits_per_node_round().mean(),
                   static_cast<double>(bits));
}

TEST(Network, BlobCountsTowardSize) {
  Message m;
  const std::vector<std::uint8_t> bytes(16, 0xFF);
  m.set_blob(bytes);
  m.set_payload_bits(100);
  EXPECT_EQ(m.size_bits(), 3 * 64 + 16 * 8 + 100u);
}

TEST(Network, ChurnEventsFire) {
  Network net(basic_config(16, 3));
  // (hook, vertex) per call: every hook hears of one vertex, in
  // registration order, before the next vertex is churned.
  std::vector<std::pair<int, Vertex>> calls;
  for (const int hook : {1, 2}) {
    net.add_churn_hook([&, hook](Vertex v, PeerId old_peer, PeerId new_peer) {
      calls.emplace_back(hook, v);
      EXPECT_NE(old_peer, new_peer);
      EXPECT_EQ(net.peer_at(v), new_peer);
    });
  }
  const std::vector<Vertex> churned = net.begin_round();
  ASSERT_EQ(churned.size(), 3u);
  ASSERT_EQ(calls.size(), 6u);
  for (std::size_t i = 0; i < churned.size(); ++i) {
    EXPECT_EQ(calls[2 * i], std::make_pair(1, churned[i]));
    EXPECT_EQ(calls[2 * i + 1], std::make_pair(2, churned[i]));
  }
}

TEST(Network, GraphStaysRegularUnderRewire) {
  SimConfig c = basic_config(64, 4);
  c.edge_dynamics = EdgeDynamics::kRewire;
  Network net(c);
  for (int i = 0; i < 50; ++i) net.begin_round();
  EXPECT_TRUE(net.graph().check_invariants());
}

TEST(Network, DeterministicGivenSeed) {
  SimConfig c = basic_config(64, 8);
  c.edge_dynamics = EdgeDynamics::kRewire;
  Network a(c), b(c);
  for (int i = 0; i < 20; ++i) {
    const auto ca = a.begin_round();
    const auto cb = b.begin_round();
    EXPECT_EQ(ca, cb);
    a.deliver();
    b.deliver();
  }
  for (Vertex v = 0; v < 64; ++v) EXPECT_EQ(a.peer_at(v), b.peer_at(v));
}

}  // namespace
}  // namespace churnstore
