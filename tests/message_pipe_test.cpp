// The message pipe's contract (net/network.h): a message stays in the lane
// it was sent on until the round after it is dispatched, the outbox order
// is the list of serial runs and lane flushes, and every inbox is a view of
// pointers in that order. These tests pin what the pipe promises to the
// protocols: order across runs, reply timing and charging, spilled payloads
// from pooled shard tasks, drops, empty inboxes, and the send_sharded check.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/system.h"
#include "net/network.h"
#include "util/thread_pool.h"

namespace churnstore {
namespace {

SimConfig pipe_config(std::uint32_t n, std::uint32_t shards) {
  SimConfig c;
  c.n = n;
  c.degree = 4;
  c.seed = 29;
  c.churn.kind = AdversaryKind::kNone;
  c.edge_dynamics = EdgeDynamics::kStatic;
  c.shards = shards;
  return c;
}

Message probe(const Network& net, Vertex from, Vertex to,
              std::uint64_t word) {
  Message m;
  m.src = net.peer_at(from);
  m.dst = net.peer_at(to);
  m.type = MsgType::kProbe;
  m.words = {word};
  return m;
}

std::vector<std::uint64_t> first_words(const Network& net, Vertex v) {
  std::vector<std::uint64_t> words;
  for (const Message& m : net.inbox(v)) words.push_back(m.words[0]);
  return words;
}

bool every_inbox_empty(const Network& net) {
  for (Vertex v = 0; v < net.n(); ++v) {
    if (!net.inbox(v).empty() || net.inbox(v).size() != 0) return false;
  }
  return true;
}

TEST(MessagePipe, SendShardedFromAnotherShardsVertexThrowsAndQueuesNothing) {
  Network net(pipe_config(64, 4));  // shard 1 owns [16, 32)
  net.begin_round();
  try {
    net.send_sharded(1, /*from=*/3, probe(net, 3, 5, 1));
    FAIL() << "a send from vertex 3 on shard 1's lane must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vertex 3"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  }
  EXPECT_THROW(net.send_sharded(1, /*from=*/32, probe(net, 32, 5, 2)),
               std::logic_error);
  net.send_sharded(1, /*from=*/31, probe(net, 31, 5, 3));  // in range
  net.deliver();
  EXPECT_EQ(net.metrics().total_messages(), 1u);
  EXPECT_EQ(first_words(net, 5), std::vector<std::uint64_t>{3});
  EXPECT_EQ(net.metrics().total_bits(), 2 * probe(net, 31, 5, 3).size_bits())
      << "the rejected sends must not be charged";
}

TEST(MessagePipe, SerialSendsAndLaneFlushesInterleaveInCanonicalOrder) {
  // The outbox order: a serial send lands where it is made, a flush appends
  // each lane's new messages in ascending shard order. Odd words go to
  // vertex 5, even words to vertex 40 (another destination shard).
  Network net(pipe_config(64, 4));
  net.begin_round();
  const auto to = [](std::uint64_t w) -> Vertex { return w % 2 ? 5 : 40; };
  const auto sharded = [&](std::uint32_t s, Vertex from, std::uint64_t w) {
    net.send_sharded(s, from, probe(net, from, to(w), w));
  };
  const auto serial = [&](std::uint64_t w) {
    net.send(0, probe(net, 0, to(w), w));
  };
  sharded(3, 50, 1);
  serial(2);
  sharded(1, 20, 3);
  net.flush_shard_lanes();  // order so far: 2 | lane 1: 3 | lane 3: 1
  serial(4);
  serial(5);
  sharded(0, 2, 6);
  sharded(3, 51, 7);
  sharded(0, 3, 8);
  net.flush_shard_lanes();  // 4 5 | lane 0: 6 8 | lane 3: 7
  serial(9);
  sharded(2, 33, 10);       // flushed by deliver(), behind serial 9
  net.deliver();
  // Full order: 2 3 1 4 5 6 8 7 9 10.
  EXPECT_EQ(first_words(net, 5), (std::vector<std::uint64_t>{3, 1, 5, 7, 9}));
  EXPECT_EQ(first_words(net, 40), (std::vector<std::uint64_t>{2, 4, 6, 8, 10}));
  EXPECT_EQ(net.metrics().total_messages(), 10u);
}

/// Round 1: vertex 0 probes vertex 13 (one word). Vertex 13 answers from
/// on_message with a two-word kProbeHit. Round 2: vertex 2 probes vertex 0
/// with three words. Vertex 0 logs what it receives, per round. At four
/// shards the reply sits on a higher shard's lane than round 2's probe, so
/// only the flush that ends dispatch keeps the reply ahead.
class ReplyProbe final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "reply-probe";
  }
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override {
    (void)shard;
    const Round r = net().round();
    const Vertex from = r == 1 ? 0 : 2;
    const Vertex to = r == 1 ? 13 : 0;
    if ((r != 1 && r != 2) || from < ctx.begin() || from >= ctx.end()) return;
    Message m;
    m.src = net().peer_at(from);
    m.dst = net().peer_at(to);
    m.type = MsgType::kProbe;
    const std::size_t words = r == 1 ? 1 : 3;
    m.words.assign(words, static_cast<std::uint64_t>(10 * r));
    ctx.send(from, std::move(m));
  }
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override {
    if (v == 0) heard_.emplace_back(net().round(), m.words[0]);
    if (m.type == MsgType::kProbe && v == 13) {
      Message reply;
      reply.src = net().peer_at(13);
      reply.dst = m.src;
      reply.type = MsgType::kProbeHit;
      reply.words = {99, 99};
      ctx.send(v, std::move(reply));
    }
    return true;
  }
  /// (round dispatched, first word) of every message vertex 0 received.
  std::vector<std::pair<Round, std::uint64_t>> heard_;
};

TEST(MessagePipe, DispatchReplyArrivesNextRoundAheadOfItsSendsAndIsChargedThere) {
  for (const std::uint32_t shards : {1u, 4u}) {
    ThreadPool pool(2);
    SystemConfig cfg;
    cfg.sim = pipe_config(16, shards);
    std::vector<std::unique_ptr<Protocol>> mods;
    auto tap = std::make_unique<ReplyProbe>();
    ReplyProbe* raw = tap.get();
    mods.push_back(std::move(tap));
    P2PSystem sys(cfg, std::move(mods));
    if (shards != 1) sys.set_shard_pool(&pool);
    const Metrics& m = sys.metrics();
    constexpr std::uint64_t kHeader = 3 * 64;

    sys.run_round();
    EXPECT_TRUE(raw->heard_.empty()) << "the reply must wait a round, S="
                                   << shards;
    // Round 1 carries the probe alone: sender and receiver pay 256 bits.
    EXPECT_EQ(m.last_round_max_bits(), kHeader + 64) << "S=" << shards;
    EXPECT_DOUBLE_EQ(m.last_round_mean_bits() * 16, 2.0 * (kHeader + 64))
        << "S=" << shards;

    sys.run_round();
    const std::vector<std::pair<Round, std::uint64_t>> want = {{2, 99},
                                                               {2, 20}};
    EXPECT_EQ(raw->heard_, want) << "S=" << shards;
    // Round 2: the reply (320 bits) and round 2's probe (384 bits) are both
    // charged to their senders and to vertex 0, which received both.
    const std::uint64_t reply = kHeader + 2 * 64;
    const std::uint64_t second = kHeader + 3 * 64;
    EXPECT_EQ(m.last_round_max_bits(), reply + second) << "S=" << shards;
    EXPECT_DOUBLE_EQ(m.last_round_mean_bits() * 16,
                     2.0 * static_cast<double>(reply + second))
        << "S=" << shards;
    EXPECT_EQ(m.total_messages(), 3u) << "S=" << shards;
  }
}

/// One message shape SpillProbe sends: its word count, blob bytes, opaque
/// payload bits and whether it carries a trace id.
struct Shape {
  std::size_t words;
  std::size_t blob;
  std::uint64_t payload_bits;
  bool traced;
};

/// A long list with a blob, the inline limit, one word past it, and each
/// extra on its own: everything but the inline-limit shape spills.
constexpr std::array<Shape, 6> kShapes = {{
    {20, 40, 0, false},
    {kInlineWords, 0, 0, false},
    {kInlineWords + 1, 0, 0, false},
    {2, 24, 0, false},
    {2, 0, 777, false},
    {2, 0, 0, true},
}};

/// The paper's charge for a shape, computed apart from Message::size_bits.
std::uint64_t shape_bits(const Shape& sh) {
  return 3 * 64 + 64 * sh.words + 8 * sh.blob + sh.payload_bits +
         (sh.traced ? 64 : 0);
}

/// Every fifth vertex sends each shape from its shard task, and the vertex
/// after it sends each shape from serial context (on_round_merge), so
/// blocks spill into the shard arenas and the serial lane's arena alike.
/// The receiver checks every word, byte, extra and the charge. The serial
/// prologue, the first hook after begin_round released the last round,
/// records every arena's bytes in use; on_dispatch_merge records them
/// while the round's messages are alive.
class SpillProbe final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "spill-probe";
  }
  void on_attach(Network& net) override {
    Protocol::on_attach(net);
    bad_.assign(net.shards().count(), 0);
    got_.assign(net.shards().count(), 0);
  }
  static std::uint64_t word(Vertex from, Round r, std::size_t i) {
    return (std::uint64_t{from} << 32) ^
           (static_cast<std::uint64_t>(r) << 8) ^ i;
  }
  static std::uint8_t byte(Vertex from, Round r, std::size_t i) {
    return static_cast<std::uint8_t>(from + i + static_cast<std::size_t>(r));
  }
  Message build(Vertex v, std::size_t kind) const {
    const Shape& sh = kShapes[kind];
    const Round r = net().round();
    Message m;
    m.src = net().peer_at(v);
    m.dst = net().peer_at((v * 7 + 3) % net().n());
    m.type = MsgType::kProbe;
    m.words.push_back(kind);
    for (std::size_t i = 1; i < sh.words; ++i) m.words.push_back(word(v, r, i));
    std::vector<std::uint8_t> bytes(sh.blob);
    for (std::size_t i = 0; i < sh.blob; ++i) bytes[i] = byte(v, r, i);
    m.set_blob(bytes);
    m.set_payload_bits(sh.payload_bits);
    if (sh.traced) m.set_trace_id(word(v, r, 99) | 1);
    sent_bits_ += shape_bits(sh);
    ++sent_;
    return m;
  }
  /// Bytes in use in every shard arena, then the serial arena's.
  std::vector<std::size_t> arena_bytes() const {
    std::vector<std::size_t> out;
    for (std::uint32_t s = 0; s < net().shards().count(); ++s) {
      out.push_back(net().shard_arena(s).bytes_in_use());
    }
    out.push_back(net().serial_arena().bytes_in_use());
    return out;
  }
  void on_round_begin() override { before_.push_back(arena_bytes()); }
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override {
    (void)shard;
    for (Vertex v = ctx.begin(); v < ctx.end(); ++v) {
      if (v % 5 != 0) continue;
      for (std::size_t k = 0; k < kShapes.size(); ++k) ctx.send(v, build(v, k));
    }
  }
  void on_round_merge() override {
    for (Vertex v = 1; v < net().n(); v += 5) {
      for (std::size_t k = 0; k < kShapes.size(); ++k) {
        net().send(v, build(v, k));
      }
    }
  }
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override {
    (void)v;
    const std::uint32_t s = ctx.shard();
    ++got_[s];
    const Vertex from = *net().find_vertex(m.src);
    const Round r = net().round();
    const std::size_t kind = m.words.empty() ? kShapes.size() : m.words[0];
    bool ok = kind < kShapes.size();
    if (ok) {
      const Shape& sh = kShapes[kind];
      ok = m.words.size() == sh.words && m.blob().size() == sh.blob &&
           m.payload_bits() == sh.payload_bits &&
           m.trace_id() == (sh.traced ? word(from, r, 99) | 1 : 0) &&
           m.size_bits() == shape_bits(sh) &&
           m.words.spilled() == (kind != 1);
      for (std::size_t i = 1; ok && i < sh.words; ++i) {
        ok = m.words[i] == word(from, r, i);
      }
      for (std::size_t i = 0; ok && i < sh.blob; ++i) {
        ok = m.blob()[i] == byte(from, r, i);
      }
    }
    if (!ok) ++bad_[s];
    return true;
  }
  void on_dispatch_merge() override { during_.push_back(arena_bytes()); }

  [[nodiscard]] std::uint64_t got() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t g : got_) sum += g;
    return sum;
  }
  [[nodiscard]] std::uint64_t bad() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : bad_) sum += b;
    return sum;
  }
  mutable std::atomic<std::uint64_t> sent_{0};
  mutable std::atomic<std::uint64_t> sent_bits_{0};
  /// arena_bytes() per round: at the serial prologue, and after dispatch.
  std::vector<std::vector<std::size_t>> before_;
  std::vector<std::vector<std::size_t>> during_;

 private:
  std::vector<std::uint64_t> got_;  ///< per destination shard
  std::vector<std::uint64_t> bad_;
};

TEST(MessagePipe, SpilledWordsAndBlobsFromPooledShardTasksArriveIntact) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kN = 256;
  ThreadPool pool(kShards);
  SystemConfig cfg;
  cfg.sim = pipe_config(kN, kShards);
  std::vector<std::unique_ptr<Protocol>> mods;
  auto probe_mod = std::make_unique<SpillProbe>();
  SpillProbe* raw = probe_mod.get();
  mods.push_back(std::move(probe_mod));
  P2PSystem sys(cfg, std::move(mods));
  sys.set_shard_pool(&pool);
  Network& net = sys.network();

  constexpr std::uint32_t kWarm = 3;
  constexpr std::uint32_t kRounds = 20;
  sys.run_rounds(kWarm);
  std::vector<std::uint64_t> fresh;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    fresh.push_back(net.shard_arena(s).fresh_blocks());
  }
  fresh.push_back(net.serial_arena().fresh_blocks());
  const std::uint64_t bits0 = net.metrics().total_bits();
  const std::uint64_t sent_bits0 = raw->sent_bits_.load();
  sys.run_rounds(kRounds);
  sys.run_round();  // its begin_round releases the last measured round
  EXPECT_EQ(raw->bad(), 0u);
  // A round's sends are dispatched in the same round and nobody churns, so
  // every message sent so far has arrived, and each was charged its shape's
  // bits once to the sender and once to the receiver.
  const std::uint64_t senders = (kN + 4) / 5 + (kN + 3) / 5;  // v%5 = 0, 1
  const std::uint64_t per_round = senders * kShapes.size();
  EXPECT_EQ(raw->sent_.load(), (kWarm + kRounds + 1) * per_round);
  EXPECT_EQ(raw->got(), (kWarm + kRounds + 1) * per_round);
  EXPECT_EQ(net.metrics().total_bits() - bits0,
            2 * (raw->sent_bits_.load() - sent_bits0));
  for (std::uint32_t s = 0; s <= kShards; ++s) {
    const std::uint64_t now = s < kShards ? net.shard_arena(s).fresh_blocks()
                                          : net.serial_arena().fresh_blocks();
    EXPECT_EQ(now, fresh[s]) << "arena " << s << " kept carving blocks";
  }
  // Once the lanes have their steady capacity, every arena holds spilled
  // blocks while a round's messages are alive, and begin_round returns it
  // to the bytes it had before that round sent anything.
  ASSERT_EQ(raw->before_.size(), kWarm + kRounds + 1);
  for (std::uint32_t r = kWarm; r < kWarm + kRounds; ++r) {
    for (std::uint32_t a = 0; a <= kShards; ++a) {
      EXPECT_GT(raw->during_[r][a], raw->before_[r][a])
          << "round " << r << " arena " << a << " held no spilled block";
      EXPECT_EQ(raw->before_[r + 1][a], raw->before_[r][a])
          << "round " << r << " arena " << a << " kept bytes after release";
    }
  }
}

TEST(MessagePipe, DroppedMessageIsCountedOnceChargedToSenderOnly) {
  Network net(pipe_config(64, 4));
  net.begin_round();
  const PeerId ghost = 0xdeadULL;  // never existed
  Message serial = probe(net, 0, 1, 7);
  serial.dst = ghost;
  Message sharded = probe(net, 40, 1, 8);
  sharded.dst = ghost;
  const std::uint64_t bits = serial.size_bits();
  net.send(0, std::move(serial));
  net.send_sharded(2, 40, std::move(sharded));
  net.deliver();
  EXPECT_EQ(net.metrics().total_messages(), 2u);
  EXPECT_EQ(net.metrics().dropped_messages(), 2u);
  EXPECT_EQ(net.metrics().total_bits(), 2 * bits) << "senders only";
  EXPECT_EQ(net.metrics().last_round_max_bits(), bits);
  EXPECT_DOUBLE_EQ(net.metrics().last_round_mean_bits() * 64,
                   2.0 * static_cast<double>(bits));
  EXPECT_TRUE(every_inbox_empty(net));
}

TEST(MessagePipe, InboxIsEmptyBeforeDeliveryAfterAQuietRoundAndAfterBeginRound) {
  for (const std::uint32_t shards : {1u, 3u}) {
    Network net(pipe_config(32, shards));
    EXPECT_TRUE(every_inbox_empty(net)) << "before the first deliver";
    net.begin_round();
    net.deliver();
    EXPECT_TRUE(every_inbox_empty(net)) << "after a quiet round";

    net.begin_round();
    net.send(4, probe(net, 4, 9, 1));
    net.send(4, probe(net, 4, 31, 2));
    net.deliver();
    EXPECT_EQ(first_words(net, 9), std::vector<std::uint64_t>{1});
    EXPECT_EQ(first_words(net, 31), std::vector<std::uint64_t>{2});
    net.begin_round();
    EXPECT_TRUE(every_inbox_empty(net)) << "after begin_round, S=" << shards;
    net.deliver();
    EXPECT_TRUE(every_inbox_empty(net))
        << "a quiet round after a busy one, S=" << shards;
  }
}

}  // namespace
}  // namespace churnstore
