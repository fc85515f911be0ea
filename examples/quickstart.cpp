// Quickstart: stand up a dynamic P2P network with churn, store a data item,
// and retrieve it from the other side of the network.
//
//   ./build/examples/quickstart [--n=1024] [--churn-mult=0.5] [--seed=1]
#include <cstdio>

#include "core/system.h"
#include "util/cli.h"

using namespace churnstore;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);

  SystemConfig config;
  config.sim.n = static_cast<std::uint32_t>(cli.get_int("n", 1024));
  config.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.sim.churn.kind = AdversaryKind::kUniform;
  config.sim.churn.multiplier = cli.get_double("churn-mult", 0.5);

  P2PSystem sys(config);
  std::printf("network: n=%u d=%u churn=%u peers/round tau=%u rounds\n",
              sys.n(), config.sim.degree,
              config.sim.churn.per_round(sys.n()), sys.tau());

  // 1. Let the random-walk soup mix so nodes hold uniform samples.
  sys.run_rounds(sys.warmup_rounds());

  // 2. Peer at vertex 3 stores an item. The system elects a committee of
  //    ~log n random nodes to hold replicas and keep them replenished.
  const ItemId item = 0xCAFE;
  while (!sys.store_item(/*creator=*/3, item)) sys.run_round();
  std::printf("stored item %#lx: committee of %zu replicas\n",
              static_cast<unsigned long>(item),
              sys.committees().alive_members(item));

  // 3. Run a while under churn; the committee re-forms every refresh period
  //    and rebuilds its ~sqrt(n) landmark set.
  sys.run_rounds(3 * sys.tau());
  std::printf("after %u rounds of churn: %zu replicas, %zu landmarks, "
              "available=%s\n",
              3 * sys.tau(), sys.searches().copies_alive(item),
              sys.searches().landmarks_alive(item),
              sys.searches().is_available(item) ? "yes" : "no");

  // 4. A node on the other side of the id space searches for the item.
  //    (If the searcher itself is churned out mid-search — a real
  //    possibility at these rates — another node retries.)
  const SearchStatus* st = nullptr;
  for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
    const Vertex searcher = sys.n() - 5 - 17 * attempt;
    const auto sid = sys.search(searcher, item);
    sys.run_rounds(sys.search_timeout() + 2);
    st = sys.search_status(sid);
    if (st && !st->initiator_churned) break;
    std::printf("searcher at vertex %u was churned out; retrying\n", searcher);
  }
  if (st && st->succeeded_fetch()) {
    std::printf("search: located in %lld rounds, fetched+verified in %lld\n",
                static_cast<long long>(st->located - st->start),
                static_cast<long long>(st->fetched - st->start));
  } else if (st && st->succeeded_locate()) {
    std::printf("search: located a holder in %lld rounds (fetch pending)\n",
                static_cast<long long>(st->located - st->start));
  } else {
    std::printf("search failed (initiator churned: %s)\n",
                st && st->initiator_churned ? "yes" : "no");
    return 1;
  }

  std::printf("max bits/node/round over the run: %.0f (polylog target)\n",
              sys.metrics().max_bits_per_node_round().max());
  return 0;
}
