// A decentralized key/value service node: the KvStore facade over the
// churn-resilient protocols. Keys hash to item ids, values are real bytes,
// and every get is verified against the stored value's content hash.
//
//   ./build/example_kv_service [--n=1024] [--churn-mult=0.5] [--pairs=5]
#include <cstdio>
#include <string>
#include <vector>

#include "core/kv_store.h"
#include "core/system.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace churnstore;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 1024));
  const auto pairs = static_cast<std::uint32_t>(cli.get_int("pairs", 5));

  SystemConfig config;
  config.sim.n = n;
  config.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  config.sim.churn.kind = AdversaryKind::kUniform;
  config.sim.churn.multiplier = cli.get_double("churn-mult", 0.5);

  P2PSystem sys(config);
  KvStore kv(sys);

  auto run = [&](std::uint32_t rounds) { sys.run_rounds(rounds); };

  run(sys.warmup_rounds());
  std::printf("swarm of n=%u peers, walk soup mixed after %u rounds\n", n,
              sys.warmup_rounds());

  Rng rng(17);
  std::vector<std::string> keys;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    const std::string key = "user/" + std::to_string(i) + "/profile";
    const std::string value = "profile-data-#" + std::to_string(i);
    bool ok = false;
    for (int attempt = 0; attempt < 20 && !ok; ++attempt) {
      ok = kv.put(static_cast<Vertex>(rng.next_below(n)), key,
                  {value.begin(), value.end()});
      if (!ok) run(1);
    }
    if (ok) keys.push_back(key);
  }
  std::printf("stored %zu key/value pairs\n", keys.size());
  run(3 * sys.tau());

  std::uint32_t found = 0;
  for (const auto& key : keys) {
    const auto h = kv.get(static_cast<Vertex>(rng.next_below(n)), key);
    run(sys.search_timeout() + 2);
    const auto r = kv.result(h);
    if (r && r->found) {
      ++found;
      std::printf("get %-18s -> \"%.*s\" in %lld rounds\n", key.c_str(),
                  static_cast<int>(r->value.size()),
                  reinterpret_cast<const char*>(r->value.data()),
                  static_cast<long long>(r->rounds_taken));
    } else {
      std::printf("get %-18s -> MISS (searcher may have been churned)\n",
                  key.c_str());
    }
  }
  std::printf("\n%u/%zu gets verified; the network replaced %llu peers "
              "during the run\n",
              found, keys.size(),
              static_cast<unsigned long long>(sys.network().churn_events()));
  return found * 2 >= keys.size() ? 0 : 1;
}
