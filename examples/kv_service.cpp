// A decentralized key/value service node: the KvStore facade over the
// churn-resilient protocols, plus the distributed size estimator keeping a
// live estimate of the swarm size (nodes only know n approximately in
// practice; the paper assumes a constant-factor estimate, and this is how
// one is obtained).
//
// Also shows the pluggable-protocol API: the estimator is one extra module
// appended to the paper stack and driven by the same P2PSystem round loop —
// no side-channel stepping.
//
//   ./build/examples/kv_service [--n=1024] [--churn-mult=0.5] [--pairs=5]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/kv_store.h"
#include "core/size_estimator.h"
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
  config.sim.churn.k = 1.5;
  config.sim.churn.multiplier = cli.get_double("churn-mult", 0.5);

  // The estimator is a Protocol module: append it to the paper stack and
  // the driver steps it every round along with everything else.
  auto mods = P2PSystem::paper_protocols(config);
  mods.push_back(std::make_unique<SizeEstimator>(/*k=*/32));
  P2PSystem sys(config, std::move(mods));
  KvStore kv(sys);
  SizeEstimator& estimator = *sys.find_protocol<SizeEstimator>();

  auto run = [&](std::uint32_t rounds) { sys.run_rounds(rounds); };

  run(sys.warmup_rounds());
  std::printf("swarm size: true n=%u, distributed estimate=%.0f\n", n,
              estimator.median_estimate());

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
  std::printf("\n%u/%zu gets verified; swarm estimate now %.0f; the network "
              "replaced %llu peers during the run\n",
              found, keys.size(), estimator.median_estimate(),
              static_cast<unsigned long long>(sys.network().churn_events()));
  return found * 2 >= keys.size() ? 0 : 1;
}
