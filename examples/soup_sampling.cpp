// The "soup of random walks" as a standalone service: near-uniform peer
// sampling in a network under adversarial churn (paper section 3). Shows
// each building block on its own — walk survival, destination uniformity,
// and the sample buffers applications draw from — without the storage
// layers on top.
//
//   ./build/examples/soup_sampling [--n=1024] [--churn-mult=0.5]
#include <cstdio>
#include <vector>

#include "net/network.h"
#include "stats/divergence.h"
#include "util/cli.h"
#include "walk/token_soup.h"

using namespace churnstore;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  SimConfig config;
  config.n = static_cast<std::uint32_t>(cli.get_int("n", 1024));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  config.churn.kind = AdversaryKind::kUniform;
  config.churn.multiplier = cli.get_double("churn-mult", 0.5);

  Network net(config);
  TokenSoup soup(net, WalkConfig{});
  std::printf("soup: %u walks/node/round, length %u, forward cap %u\n",
              soup.walks_per_round(), soup.walk_length(), soup.cap());

  // Track where tagged probe walks land.
  std::vector<std::uint64_t> arrivals(config.n, 0);
  std::uint64_t completed = 0;
  soup.set_probe_hook([&](std::uint64_t, Vertex d, Round) {
    ++arrivals[d];
    ++completed;
  });

  // Warm up the steady-state soup.
  for (std::uint32_t r = 0; r < 2 * soup.tau(); ++r) {
    net.begin_round();
    soup.step();
    net.deliver();
  }

  // Inject one tracked probe per node and measure survival + uniformity.
  const std::uint32_t kProbesPerNode = 16;
  net.begin_round();
  for (Vertex v = 0; v < config.n; ++v)
    for (std::uint32_t i = 0; i < kProbesPerNode; ++i)
      soup.inject_probe(v, v, soup.walk_length());
  const std::uint64_t injected =
      static_cast<std::uint64_t>(config.n) * kProbesPerNode;
  for (std::uint32_t r = 0; r < soup.walk_length() + 4; ++r) {
    if (r > 0) net.begin_round();
    soup.step();
    net.deliver();
  }

  const auto rep = uniformity_report(arrivals);
  std::printf("\ninjected %llu probes; %llu survived churn (%.1f%%)\n",
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(completed),
              100.0 * static_cast<double>(completed) /
                  static_cast<double>(injected));
  std::printf("destination distribution vs uniform:\n");
  std::printf("  total variation distance  %.4f\n", rep.tvd);
  std::printf("  min probability x n       %.3f   (Soup Theorem: >= 1/17)\n",
              rep.min_prob_times_n);
  std::printf("  max probability x n       %.3f   (Soup Theorem: <= 3/2)\n",
              rep.max_prob_times_n);
  std::printf("  nodes never hit           %.2f%%\n",
              100.0 * rep.zero_fraction);

  // Show what an application sees: one node's sample buffer.
  PeerList samples;
  soup.samples(0).recent_distinct(8, samples);
  std::printf("\nnode 0's most recent distinct peer samples:");
  for (const PeerId p : samples)
    std::printf(" %llu", static_cast<unsigned long long>(p));
  std::printf("\n");
  return rep.tvd < 0.5 ? 0 : 1;
}
