// Microbenchmarks (google-benchmark) for the kernels underneath the
// simulation: PRNG, GF(256) fused multiply-accumulate, IDA encode/decode,
// graph generation and rewiring, and spectral estimation. The soup step is
// timed by the soup_step scenario (bench_driver) and the ledger (ledger/).
#include <benchmark/benchmark.h>

#include "coding/gf256.h"
#include "coding/ida.h"
#include "graph/regular_generator.h"
#include "graph/rewirer.h"
#include "graph/spectral.h"
#include "util/rng.h"

using namespace churnstore;

namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(8));
}
BENCHMARK(BM_RngNextBelow);

void BM_Gf256MulAcc(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(len, 0x5a), dst(len, 0x11);
  gf256::ensure_tables();
  for (auto _ : state) {
    gf256::mul_acc(dst.data(), src.data(), 0x37, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Gf256MulAcc)->Arg(256)->Arg(4096);

void BM_IdaEncode(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  IdaCodec codec(6, 12);
  for (auto _ : state) {
    auto pieces = codec.encode(data);
    benchmark::DoNotOptimize(pieces.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IdaEncode)->Arg(1024)->Arg(16384);

void BM_IdaDecode(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  IdaCodec codec(6, 12);
  const auto pieces = codec.encode(data);
  std::vector<IdaPiece> subset(pieces.begin() + 3, pieces.begin() + 9);
  for (auto _ : state) {
    auto out = codec.decode(subset, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IdaDecode)->Arg(1024)->Arg(16384);

void BM_RandomRegularGraph(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    auto g = random_regular_graph(n, 8, rng);
    benchmark::DoNotOptimize(g.slot_count());
  }
}
BENCHMARK(BM_RandomRegularGraph)->Arg(1024)->Arg(8192);

void BM_RewireRound(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  auto g = random_regular_graph(n, 8, rng);
  Rewirer rw(Rewirer::Options{.swaps_per_round = n / 8,
                              .connectivity_check_period = 0},
             rng.fork(1));
  for (auto _ : state) benchmark::DoNotOptimize(rw.apply(g));
}
BENCHMARK(BM_RewireRound)->Arg(1024)->Arg(8192);

void BM_SpectralEstimate(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  const auto g = random_regular_graph(n, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(second_eigenvalue_estimate(g, rng));
  }
}
BENCHMARK(BM_SpectralEstimate)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
