#include <gtest/gtest.h>

#include "core/system.h"
#include "storage/erasure_store.h"

namespace churnstore {
namespace {

SystemConfig erasure_config(std::uint32_t n, std::int64_t churn_abs,
                            std::uint64_t seed = 8) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = seed;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  c.protocol.use_erasure_coding = true;
  c.protocol.ida_surplus = 2;
  return c;
}

TEST(ErasurePolicy, PiecesNeededFollowsSurplus) {
  ErasurePolicy p(2);
  EXPECT_EQ(p.pieces_needed(8), 6u);
  EXPECT_EQ(p.pieces_needed(3), 1u);
  EXPECT_EQ(p.pieces_needed(2), 1u);
}

TEST(ErasurePolicy, CrossGenerationPieceCompatibility) {
  // Pieces from encodes with different L but same K must decode together.
  ErasurePolicy p(2);
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  const auto gen1 = p.encode(data, 4, 8);
  const auto gen2 = p.encode(data, 4, 6);
  std::vector<IdaPiece> mixed{gen1[7], gen2[0], gen1[2], gen2[5]};
  const auto back = p.reconstruct(mixed, 4, data.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(ErasureStorage, MembersHoldPiecesNotReplicas) {
  P2PSystem sys(erasure_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_round();
  std::size_t members = 0;
  std::size_t full_size = 0;
  for (Vertex v = 0; v < sys.n(); ++v) {
    const Membership* m = sys.committees().membership_at(v, 5);
    if (!m) continue;
    ++members;
    EXPECT_NE(m->piece_index, kNoPiece);
    EXPECT_GT(m->ida_k, 0u);
    full_size = static_cast<std::size_t>(m->original_size);
    // Piece is roughly |I| / K, far smaller than the item.
    EXPECT_LT(m->payload.size(), full_size);
  }
  EXPECT_GE(members, 3u);
}

TEST(ErasureStorage, SurvivesRefreshCycles) {
  P2PSystem sys(erasure_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_rounds(4 * sys.committees().refresh_period());
  EXPECT_TRUE(sys.searches().is_recoverable(5));
  const auto* inf = sys.committees().info(5);
  ASSERT_NE(inf, nullptr);
  EXPECT_GE(inf->generations, 3u);
}

TEST(ErasureStorage, EndToEndSearchAndReconstruct) {
  P2PSystem sys(erasure_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(3, 5); ++i) sys.run_round();
  sys.run_rounds(2 * sys.tau());
  const auto sid = sys.search(200, 5);
  sys.run_rounds(sys.search_timeout() + 4);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->succeeded_locate());
  EXPECT_TRUE(st->succeeded_fetch())
      << "initiator failed to gather K pieces and reconstruct";
  EXPECT_TRUE(st->fetch_ok);
}

TEST(ErasureStorage, SurvivesModerateChurn) {
  P2PSystem sys(erasure_config(256, 6, /*seed=*/77));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(3, 5); ++i) sys.run_round();
  sys.run_rounds(3 * sys.committees().refresh_period());
  EXPECT_TRUE(sys.searches().is_recoverable(5));
  const auto sid = sys.search(200, 5);
  sys.run_rounds(sys.search_timeout() + 4);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  if (!st->initiator_churned) {
    EXPECT_TRUE(st->succeeded_locate());
  }
}

TEST(ErasureStorage, StorageOverheadBelowReplication) {
  // Measure total bytes stored across members vs. replication's cost.
  P2PSystem sys(erasure_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  for (int i = 0; i < 20 && !sys.store_item(0, 5); ++i) sys.run_round();
  sys.run_round();
  std::size_t total = 0, members = 0, item_size = 0;
  for (Vertex v = 0; v < sys.n(); ++v) {
    if (const Membership* m = sys.committees().membership_at(v, 5)) {
      total += m->payload.size();
      item_size = static_cast<std::size_t>(m->original_size);
      ++members;
    }
  }
  ASSERT_GT(members, 0u);
  ASSERT_GT(item_size, 0u);
  const std::size_t replication_cost = members * item_size;
  EXPECT_LT(total, replication_cost / 2)
      << "IDA should cost ~L/K * |I| << L * |I|";
}

}  // namespace
}  // namespace churnstore
