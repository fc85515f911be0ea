#include <gtest/gtest.h>

#include "core/system.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, std::int64_t churn_abs,
                         std::uint64_t seed = 21) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = seed;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  return c;
}

/// Stores an item, waiting for warm samples; returns the creator vertex.
Vertex store_with_retry(P2PSystem& sys, ItemId item, Vertex creator = 0) {
  for (int i = 0; i < 40; ++i) {
    if (sys.store_item(creator, item)) return creator;
    sys.run_round();
  }
  ADD_FAILURE() << "store never succeeded";
  return creator;
}

TEST(Storage, StoreCreatesCommitteeAndRecord) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 77);
  sys.run_round();
  const ItemRecord* rec = sys.store().record(77);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->id, 77u);
  EXPECT_GT(sys.store().copies_alive(77), 0u);
}

TEST(Storage, CopiesStayThetaLogN) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 77);
  sys.run_rounds(4 * sys.committees().refresh_period());
  const std::size_t copies = sys.store().copies_alive(77);
  EXPECT_GE(copies, 3u);
  EXPECT_LE(copies, 3u * sys.committees().target_size());
}

TEST(Storage, BecomesAvailableAfterLandmarkWave) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 5);
  sys.run_rounds(sys.landmarks().tree_depth() + 4);
  EXPECT_TRUE(sys.store().is_recoverable(5));
  EXPECT_TRUE(sys.store().is_available(5));
}

TEST(Search, LocatesAndFetchesStoredItem) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 5, /*creator=*/3);
  sys.run_rounds(2 * sys.tau());

  const auto sid = sys.search(/*initiator=*/200, 5);
  sys.run_rounds(sys.search_timeout() + 2);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->succeeded_locate()) << "search never located the item";
  EXPECT_TRUE(st->succeeded_fetch()) << "payload never fetched";
  EXPECT_TRUE(st->fetch_ok) << "payload failed the integrity check";
  EXPECT_GT(st->located, st->start);
}

TEST(Search, MissingItemTimesOut) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  const auto sid = sys.search(7, /*item=*/0xBEEF);  // never stored
  sys.run_rounds(sys.search_timeout() + 4);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->finished);
  EXPECT_FALSE(st->succeeded_locate());
  EXPECT_FALSE(st->succeeded_fetch());
}

TEST(Search, ReportAfterTimeoutLeavesSearchUnlocated) {
  // A holder report that reaches the initiator after its search timed out
  // is ignored. The same report for a live search locates it.
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  constexpr Vertex kInitiator = 7;
  const auto expired = sys.search(kInitiator, /*item=*/0xBEEF);  // not stored
  sys.run_rounds(sys.search_timeout() + 4);
  ASSERT_TRUE(sys.search_status(expired)->finished);
  ASSERT_FALSE(sys.search_status(expired)->succeeded_locate());
  const auto live = sys.search(kInitiator, /*item=*/0xF00D);

  Network& net = sys.network();
  for (const auto& [sid, item] :
       {std::pair{expired, ItemId{0xBEEF}}, std::pair{live, ItemId{0xF00D}}}) {
    Message report;
    report.src = net.peer_at(8);
    report.dst = net.peer_at(kInitiator);
    report.type = MsgType::kReport;
    report.words = {item, sid, 1, net.peer_at(9)};
    net.send(8, std::move(report));
  }
  sys.run_round();
  EXPECT_FALSE(sys.search_status(expired)->succeeded_locate());
  EXPECT_TRUE(sys.search_status(live)->succeeded_locate());
}

TEST(Search, WorksUnderChurn) {
  SystemConfig cfg = make_config(256, 0, /*seed=*/31);
  cfg.sim.churn.kind = AdversaryKind::kUniform;
  cfg.sim.churn.absolute = 8;  // ~3% per round
  P2PSystem sys(cfg);
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 5, 3);
  sys.run_rounds(2 * sys.tau());

  int located = 0, fetched = 0, eligible = 0;
  for (int i = 0; i < 6; ++i) {
    const auto initiator =
        static_cast<Vertex>((37 * i + 11) % sys.n());
    const auto sid = sys.search(initiator, 5);
    sys.run_rounds(sys.search_timeout() + 2);
    const SearchStatus* st = sys.search_status(sid);
    ASSERT_NE(st, nullptr);
    if (st->initiator_churned) continue;
    ++eligible;
    located += st->succeeded_locate();
    fetched += st->succeeded_fetch();
  }
  ASSERT_GT(eligible, 0);
  EXPECT_GE(located, eligible - 1);  // allow one unlucky search
  EXPECT_GE(fetched, eligible - 2);
}

TEST(Search, MultipleConcurrentSearches) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 1, 3);
  store_with_retry(sys, 2, 90);
  sys.run_rounds(2 * sys.tau());

  std::vector<std::uint64_t> sids;
  for (int i = 0; i < 4; ++i) {
    sids.push_back(sys.search(static_cast<Vertex>(10 + 20 * i),
                              (i % 2) ? 1 : 2));
  }
  sys.run_rounds(sys.search_timeout() + 2);
  for (const auto sid : sids) {
    const SearchStatus* st = sys.search_status(sid);
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->succeeded_locate()) << "sid=" << sid;
  }
}

TEST(Search, SearchFromCreatorAlsoWorks) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  const Vertex creator = store_with_retry(sys, 5, 10);
  sys.run_rounds(2 * sys.tau());
  const auto sid = sys.search(creator, 5);
  sys.run_rounds(sys.search_timeout() + 2);
  EXPECT_TRUE(sys.search_status(sid)->succeeded_locate());
}

TEST(Search, ReportedHoldersActuallyHoldTheItem) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  store_with_retry(sys, 5, 3);
  sys.run_rounds(2 * sys.tau());
  const auto sid = sys.search(100, 5);
  sys.run_rounds(sys.search_timeout() + 2);
  const SearchStatus* st = sys.search_status(sid);
  ASSERT_TRUE(st && st->succeeded_fetch());
  // The fetched flag only rises through a kFetchReply from a node that had
  // the payload, and fetch_ok checks the content hash: integrity verified.
  EXPECT_TRUE(st->fetch_ok);
}

}  // namespace
}  // namespace churnstore
