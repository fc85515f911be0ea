// Erasure-coded storage (paper section 4.4): the same backup workload as
// churn_resilient_storage but with IDA pieces instead of full replicas —
// each committee member holds |I|/K bytes, any K members reconstruct, and
// on every committee handover the leader re-disperses fresh pieces.
// Prints the replication-vs-IDA storage bill side by side.
//
//   ./build/examples/erasure_backup [--n=1024] [--item-bits=8192]
#include <cstdio>

#include "core/system.h"
#include "util/cli.h"

using namespace churnstore;

namespace {

std::size_t stored_bytes(P2PSystem& sys, ItemId item) {
  std::size_t total = 0;
  for (Vertex v = 0; v < sys.n(); ++v) {
    if (const Membership* m = sys.committees().membership_at(v, item)) {
      total += m->payload.size();
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 1024));
  const auto item_bits =
      static_cast<std::uint64_t>(cli.get_int("item-bits", 8192));

  SystemConfig base;
  base.sim.n = n;
  base.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
  base.sim.churn.kind = AdversaryKind::kUniform;
  base.sim.churn.multiplier = cli.get_double("churn-mult", 0.5);
  base.protocol.item_bits = item_bits;

  const ItemId item = 0xD15C;
  std::printf("item size: %llu bytes\n",
              static_cast<unsigned long long>(item_bits / 8));

  for (const bool erasure : {false, true}) {
    SystemConfig config = base;
    config.protocol.use_erasure_coding = erasure;
    P2PSystem sys(config);
    sys.run_rounds(sys.warmup_rounds());
    while (!sys.store_item(3, item)) sys.run_round();
    sys.run_rounds(3 * sys.tau());

    const std::size_t bytes = stored_bytes(sys, item);
    const std::size_t copies = sys.store().copies_alive(item);
    std::printf("%-12s: %3zu holders, %6zu bytes stored network-wide "
                "(%.2fx the item)\n",
                erasure ? "IDA pieces" : "replication", copies, bytes,
                static_cast<double>(bytes) / (static_cast<double>(item_bits) / 8));

    // Retrieval must work in both modes (IDA gathers K pieces).
    const auto sid = sys.search(n - 7, item);
    sys.run_rounds(sys.search_timeout() + 2);
    const SearchStatus* st = sys.search_status(sid);
    std::printf("%-12s: retrieval %s\n", erasure ? "IDA pieces" : "replication",
                st && st->succeeded_fetch() ? "fetched + verified"
                                            : "FAILED");
  }
  return 0;
}
