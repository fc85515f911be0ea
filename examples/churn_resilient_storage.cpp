// Scenario: a fully decentralized backup service (the CrashPlan/Symform
// use case from the paper's introduction). Peers continuously store files
// and other peers retrieve them while the network churns heavily; no
// central server exists. Prints a running dashboard of availability and
// retrieval success.
//
//   ./build/examples/churn_resilient_storage [--n=2048] [--files=6]
//                                            [--epochs=5] [--churn-mult=0.5]
#include <cstdio>
#include <vector>

#include "core/system.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace churnstore;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 2048));
  const auto files = static_cast<std::uint32_t>(cli.get_int("files", 6));
  const auto epochs = static_cast<std::uint32_t>(cli.get_int("epochs", 5));

  SystemConfig config;
  config.sim.n = n;
  config.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  config.sim.churn.kind = AdversaryKind::kUniform;
  config.sim.churn.multiplier = cli.get_double("churn-mult", 0.5);
  config.protocol.item_bits = 4096;  // 512-byte "files"

  P2PSystem sys(config);
  Rng rng(99);
  const std::uint32_t churn = config.sim.churn.per_round(n);
  std::printf("backup swarm: n=%u, %u peers replaced per round (%.1f%%)\n", n,
              churn, 100.0 * churn / n);

  sys.run_rounds(sys.warmup_rounds());

  // Upload phase: random peers store their files.
  std::vector<ItemId> stored;
  for (std::uint32_t f = 0; f < files; ++f) {
    const ItemId id = 0xF11E0000 + f;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto owner = static_cast<Vertex>(rng.next_below(n));
      if (sys.store_item(owner, id)) {
        stored.push_back(id);
        break;
      }
      sys.run_round();
    }
  }
  std::printf("uploaded %zu files\n", stored.size());
  sys.run_rounds(2 * sys.tau());

  std::uint64_t ok = 0, total = 0;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    // An epoch of pure churn...
    sys.run_rounds(2 * sys.tau());
    const std::uint64_t replaced = sys.network().churn_events();

    // ...then random peers try to restore random files.
    std::vector<std::uint64_t> sids;
    for (std::uint32_t s = 0; s < 4; ++s) {
      const ItemId id = stored[rng.next_below(stored.size())];
      sids.push_back(sys.search(static_cast<Vertex>(rng.next_below(n)), id));
    }
    sys.run_rounds(sys.search_timeout() + 2);

    std::uint64_t epoch_ok = 0;
    for (const auto sid : sids) {
      const SearchStatus* st = sys.search_status(sid);
      if (!st) continue;
      if (st->initiator_churned && !st->succeeded_locate()) continue;
      ++total;
      epoch_ok += st->succeeded_fetch();
    }
    ok += epoch_ok;

    std::size_t avail = 0;
    for (const auto id : stored) avail += sys.searches().is_available(id);
    std::printf(
        "epoch %u | round %5lld | peers replaced so far %8llu | "
        "files available %zu/%zu | restores %llu/%zu\n",
        e + 1, static_cast<long long>(sys.round()),
        static_cast<unsigned long long>(replaced), avail, stored.size(),
        static_cast<unsigned long long>(epoch_ok), sids.size());
  }

  std::printf(
      "\nfinal: %llu/%llu restores verified end-to-end; the network replaced "
      "%llu peers (%.1fx the network size) during the run\n",
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(sys.network().churn_events()),
      static_cast<double>(sys.network().churn_events()) / n);
  return total > 0 && ok * 2 >= total ? 0 : 1;
}
