// The ledger: one repetition of one benchmark workload, in its own process.
//
// ledger/run.py starts this binary once per (workload, repetition),
// so the peak RSS it prints belongs to that repetition alone, then takes
// medians and checks the outputs across repetitions. The binary drives the
// engine through public calls only (build_stack, StorageService,
// P2PSystem::run_round; Network + TokenSoup for the soup-only shape) and
// adds no instrumentation to the library: per-layer time comes from timers
// around these calls and from the accessors the engine already exposes
// (phase timers, protocol_secs, heap_stats, Metrics, shard arena stats).
//
//   ledger ledger=stack n=4096 items=64 searches=6 seed=1 windows=3
//   ledger ledger=soup n=50000 walk-rate=0.25 walk-t=0.75 walk-window=1.0
//          shards=4 threads=2 seed=1 traced=true
//
// The round is unsharded unless shards > 1, which runs it on a pool of
// `threads` workers. With windows=N (unsharded only) the stages from
// measure on run N times, each in a child forked after the ramp
// (for_each_window); with measure-rounds=0 the ledger stops after setup.
//
// Load model: an open loop in simulated time. Before every round the
// ledger issues `stores` new stores and `searches` searches (for preloaded
// items, from uniformly random peers) whatever is still in flight; latency
// is counted in rounds. Stages:
//   setup    build the stack, run warmup_rounds(), preload `items` items;
//   ramp     search_timeout() untimed rounds of the open loop, so the
//            in-flight committee and landmark population is steady;
//   measure  kWarmRounds untimed rounds, then `measure-rounds` timed ones,
//            each after a HostProbe timing;
//   drain    untimed rounds, no new requests, until every measured search
//            has located or finished (capped at search_timeout() + 4);
//   judge    outcomes of the searches issued in the measured window.
// The soup-only shape has no requests: setup is graph generation plus the
// 2 tau pipeline fill, and the measured rounds are bare
// begin_round/step/deliver. With traced=true the soup step is split into
// its three public hooks, timed one at a time.
//
// Output: one JSON object per window on stdout (host facts, per-round wall
// and CPU times and probe times, request outcomes, per-round work counters
// and, when traced, per-layer milliseconds per measured round).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/scenario.h"
#include "core/stacks.h"
#include "util/cli.h"
#include "util/heap_sentinel.h"
#include "util/perf_counters.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

namespace churnstore {
namespace {

using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process in seconds. The measured rounds are
/// unsharded, so this is the engine's thread. Unlike wall time it leaves out
/// the time the hypervisor of a shared host runs someone else on the core
/// (steal), which inflated single wall-clock timings by up to 40% on the
/// calibration host (README.md, Noise).
double cpu_secs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed reference work, timed next to the engine so run.py can scale the
/// host's speed out of the engine's times (README.md, Noise). Other tenants
/// of a shared host slow a core for seconds to minutes at a time, through
/// the core itself and through the memory system, by up to 2x. The compute
/// unit is eight xorshift streams probing an L1-sized table behind a
/// coin-flip branch: wide, branchy integer work, which slows when another
/// thread shares the core. The memory unit is dependent loads around one
/// random cycle through a 64 MiB table, which slows when the shared cache
/// and memory are busy. Both are timed in CPU milliseconds.
class HostProbe {
 public:
  /// Resident bytes of the probe's tables; print_json leaves them out of
  /// the peak RSS.
  static constexpr std::size_t kBytes = (std::size_t{1} << 24) * 4 + (1u << 13) * 4;

  HostProbe() : l1_(kL1), cycle_(kCycle) {
    for (std::uint32_t i = 0; i < kL1; ++i) l1_[i] = i * 2654435761u;
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kCycle; ++i) cycle_[i] = i;
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = kCycle - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(cycle_[i], cycle_[x % i]);
    }
  }

  double compute_ms() {
    // Bring the table back into L1 untimed: the engine's round evicted it,
    // and how far depends on the engine, not on the host.
    std::uint32_t touch = 0;
    for (std::uint32_t i = 0; i < kL1; i += 16) touch += l1_[i];
    sink_ = touch;
    const double c0 = cpu_secs();
    std::uint64_t s[8];
    for (int j = 0; j < 8; ++j) s[j] = 0x9e3779b97f4a7c15ULL * (j + 1);
    std::uint64_t acc = 0;
    for (int k = 0; k < kComputeSteps; ++k) {
      for (int j = 0; j < 8; ++j) {
        std::uint64_t x = s[j];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s[j] = x;
        const std::uint32_t v = l1_[x & (kL1 - 1)];
        acc = (v & 1) ? acc + v : acc ^ x;
      }
    }
    sink_ = acc;
    return 1e3 * (cpu_secs() - c0);
  }

  double memory_ms() {
    const double c0 = cpu_secs();
    std::uint32_t at = at_;
    for (int k = 0; k < kLoads; ++k) at = cycle_[at];
    at_ = at;
    return 1e3 * (cpu_secs() - c0);
  }

 private:
  static constexpr std::uint32_t kL1 = 1u << 13;  // 32 KiB
  static constexpr int kComputeSteps = 25000;
  static constexpr std::uint32_t kCycle = 1u << 24;
  static constexpr int kLoads = 2000;
  std::vector<std::uint32_t> l1_;
  std::vector<std::uint32_t> cycle_;
  std::uint32_t at_ = 0;
  volatile std::uint64_t sink_ = 0;  // keeps the compute unit's work
};

/// Median of `times` timings of each probe unit, for a stage too long to
/// probe from inside.
std::pair<double, double> probe_median(HostProbe& probe, int times) {
  std::vector<double> compute, memory;
  for (int i = 0; i < times; ++i) {
    compute.push_back(probe.compute_ms());
    memory.push_back(probe.memory_ms());
  }
  auto median = [](std::vector<double>& xs) {
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    return xs[xs.size() / 2];
  };
  return {median(compute), median(memory)};
}

/// Cumulative engine counters, differenced over the measured window.
struct Counters {
  std::uint64_t spawned = 0, completed = 0, lost = 0;
  std::uint64_t messages = 0, bits = 0, dropped = 0;
  std::uint64_t formed = 0, committees_lost = 0;
  std::uint64_t lm_created = 0, lm_collisions = 0;
  std::uint64_t fresh_blocks = 0;

  static Counters take(Network& net) {
    const Metrics& m = net.metrics();
    Counters c{m.tokens_spawned(),      m.tokens_completed(),
               m.tokens_lost(),         m.total_messages(),
               m.total_bits(),          m.dropped_messages(),
               m.committees_formed(),   m.committees_lost(),
               m.landmarks_created(),   m.landmark_collisions()};
    for (std::uint32_t s = 0; s < net.shards().count(); ++s) {
      c.fresh_blocks += net.shard_arena(s).fresh_blocks();
    }
    return c;
  }
};

/// Everything one repetition reports. `values` holds scalar outputs under
/// their metric names; run.py aggregates them across repetitions.
struct Ledger {
  std::map<std::string, double> values;
  std::vector<double> round_ms;      ///< wall time per measured round
  std::vector<double> round_cpu_ms;  ///< CPU time per measured round
  std::vector<double> probe_compute_ms;  ///< HostProbe before each round
  std::vector<double> probe_memory_ms;
  std::vector<double> search_latency_rounds;

  /// Sized up front: the soup's heap scope counts the whole process.
  void reserve_rounds(std::size_t rounds) {
    for (auto* xs : {&round_ms, &round_cpu_ms, &probe_compute_ms, &probe_memory_ms}) {
      xs->reserve(rounds);
    }
  }

  void add_round(Clock::time_point t0, double cpu0) {
    round_ms.push_back(1e3 * secs_between(t0, Clock::now()));
    round_cpu_ms.push_back(1e3 * (cpu_secs() - cpu0));
  }
};

/// Work counters shared by both shapes, per measured round unless noted.
void record_counters(Ledger& out, Network& net, const Counters& a,
                     const Counters& b, std::size_t tokens_alive,
                     std::uint32_t rounds) {
  const double m = rounds;
  auto& v = out.values;
  v["walk.tokens_alive"] = static_cast<double>(tokens_alive);  // at the end
  v["walk.tokens_completed"] = (b.completed - a.completed) / m;
  v["walk.tokens_lost"] = (b.lost - a.lost) / m;
  v["walk.completion_ratio"] =
      b.spawned > a.spawned ? static_cast<double>(b.completed - a.completed) /
                                  static_cast<double>(b.spawned - a.spawned)
                            : 0.0;
  v["net.messages"] = (b.messages - a.messages) / m;
  v["net.bits"] = (b.bits - a.bits) / m;
  v["net.dropped"] = (b.dropped - a.dropped) / m;
  v["net.drop_ratio"] =
      b.messages > a.messages ? static_cast<double>(b.dropped - a.dropped) /
                                    static_cast<double>(b.messages - a.messages)
                              : 0.0;
  v["committee.formed"] = (b.formed - a.formed) / m;
  v["committee.lost"] = (b.committees_lost - a.committees_lost) / m;
  v["landmark.created"] = (b.lm_created - a.lm_created) / m;
  v["landmark.collisions"] = (b.lm_collisions - a.lm_collisions) / m;
  v["bits_per_node_round"] =
      static_cast<double>(b.bits - a.bits) / (m * static_cast<double>(net.n()));
  double high_water = 0.0;
  for (std::uint32_t s = 0; s < net.shards().count(); ++s) {
    high_water += static_cast<double>(net.shard_arena(s).high_water());
  }
  v["util.arena_high_water_mb"] = high_water / (1024.0 * 1024.0);  // absolute
  v["util.arena_fresh_blocks"] = (b.fresh_blocks - a.fresh_blocks) / m;
}

/// Token conservation: every walk ever spawned is completed, lost to churn,
/// or still queued. Neither shape injects probes, so this holds exactly.
bool conserved(const Network& net, const TokenSoup& soup) {
  const Metrics& m = net.metrics();
  return m.tokens_spawned() ==
         m.tokens_completed() + m.tokens_lost() + soup.tokens_alive();
}

struct Params {
  std::uint32_t measure_rounds = 100;  ///< 0: stop after the setup stage
  std::uint32_t stores = 0;  ///< stores issued before every round
  std::uint32_t windows = 0;  ///< forked measurement windows, 0: measure here
  bool traced = false;
  HostProbe* probe = nullptr;
};

/// Probe timings before and after the setup stage, each side the median of
/// this many.
constexpr int kSetupProbes = 9;

/// Times the probe units before the coming measured round.
void probe_round(const Params& p, Ledger& out) {
  out.probe_compute_ms.push_back(p.probe->compute_ms());
  out.probe_memory_ms.push_back(p.probe->memory_ms());
}

/// Records the setup stage's CPU and wall time, and the probe times around
/// it (`before` was taken just before it began).
void record_setup(const Params& p, Ledger& out, double cpu0,
                  Clock::time_point t0, std::pair<double, double> before) {
  out.values["setup_cpu_s"] = cpu_secs() - cpu0;
  out.values["setup_wall_s"] = secs_between(t0, Clock::now());
  const auto after = probe_median(*p.probe, kSetupProbes);
  out.values["setup_probe_compute_ms"] = 0.5 * (before.first + after.first);
  out.values["setup_probe_memory_ms"] = 0.5 * (before.second + after.second);
}

/// Prints one measurement window's ledger.
using Emit = std::function<void(Ledger&)>;

/// Untimed rounds at the start of every window. In a forked window they
/// take the copy-on-write faults of the pages a round writes, so the
/// measured rounds pay no more faults than the parent would have.
constexpr std::uint32_t kWarmRounds = 3;

/// Runs `window` `windows` times, each in a child forked from the current
/// state, one child at a time; with windows == 0 runs it once in this
/// process. Every forked window does the same rounds on the same state, so
/// run.py can compare a round across windows: a busy host slows a window,
/// not the work. Only an unsharded ledger forks, since a process with pool
/// threads must not.
void for_each_window(std::uint32_t windows, const std::function<void()>& window) {
  if (windows == 0) {
    window();
    return;
  }
  for (std::uint32_t w = 0; w < windows; ++w) {
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("ledger: fork failed");
    if (pid == 0) {
      int code = 0;
      try {
        window();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger window failed: %s\n", e.what());
        code = 1;
      }
      std::fflush(stdout);
      std::_Exit(code);
    }
    int status = 0;
    pid_t got = -1;
    do {
      got = waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    if (got != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("ledger: a measurement window failed");
    }
  }
}

void run_soup(const ScenarioSpec& spec, const Params& p, ThreadPool* pool,
              Ledger& out, const Emit& emit) {
  const auto probe_before = probe_median(*p.probe, kSetupProbes);
  const auto t_setup = Clock::now();
  const double cpu_setup = cpu_secs();
  const SystemConfig cfg = spec.system_config();
  Network net(cfg.sim);
  if (pool != nullptr) net.set_worker_pool(pool);
  TokenSoup soup(net, cfg.walk);
  for (std::uint32_t i = 0; i < 2 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  record_setup(p, out, cpu_setup, t_setup, probe_before);
  if (p.measure_rounds == 0) {
    emit(out);
    return;
  }

  for_each_window(p.windows, [&] {
    for (std::uint32_t i = 0; i < kWarmRounds; ++i) {
      net.begin_round();
      soup.step();
      net.deliver();
    }
    // The split path calls the same three hooks step() calls, in the same
    // order; run.py checks that it reaches the same token population.
    const std::function<void(std::uint32_t)> phase1 = [&](std::uint32_t s) {
      ShardContext ctx(net, s);
      soup.on_round_begin(s, ctx);
    };
    double churn = 0, prologue = 0, phase1_s = 0, merge = 0, deliver = 0;
    double token_rounds = 0;
    std::uint64_t broken_rounds = 0;
    const Counters before = Counters::take(net);
    // The heap scope counts process-wide: the ledger's own growth stays out.
    out.reserve_rounds(p.measure_rounds);
    const HeapQuiesceScope heap;
    for (std::uint32_t i = 0; i < p.measure_rounds; ++i) {
      probe_round(p, out);
      const double cpu0 = cpu_secs();
      const auto t0 = Clock::now();
      net.begin_round();
      const auto t1 = Clock::now();
      Clock::time_point t2, t3;
      if (p.traced) {
        soup.on_round_begin();
        t2 = Clock::now();
        net.run_sharded(phase1);
        t3 = Clock::now();
        soup.on_round_merge();
      } else {
        soup.step();
      }
      const auto t4 = Clock::now();
      net.deliver();
      const auto t5 = Clock::now();
      out.add_round(t0, cpu0);
      if (p.traced) {
        churn += secs_between(t0, t1);
        prologue += secs_between(t1, t2);
        phase1_s += secs_between(t2, t3);
        merge += secs_between(t3, t4);
        deliver += secs_between(t4, t5);
      }
      token_rounds += static_cast<double>(soup.tokens_alive());
      if (!conserved(net, soup)) ++broken_rounds;
    }
    const HeapSentinel::Totals heap_delta = heap.delta();
    const Counters after = Counters::take(net);

    auto& v = out.values;
    const double m = p.measure_rounds;
    // The soup's requests are the walk samples it delivers to the layers
    // above. Its operations are the measured rounds; one fails when the
    // token population is not conserved after it.
    v["requests_completed"] = static_cast<double>(after.completed - before.completed);
    v["ops_attempted"] = m;
    v["ops_failed"] = static_cast<double>(broken_rounds);
    v["walk.conserved"] = broken_rounds == 0 ? 1.0 : 0.0;
    record_counters(out, net, before, after, soup.tokens_alive(),
                    p.measure_rounds);
    v["util.heap_allocs"] = heap_delta.allocs / m;
    v["util.heap_bytes"] = heap_delta.bytes / m;
    if (p.traced) {
      const double walk = prologue + phase1_s + merge;
      v["net.churn_ms"] = 1e3 * churn / m;
      v["walk.prologue_ms"] = 1e3 * prologue / m;
      v["walk.phase1_ms"] = 1e3 * phase1_s / m;
      v["walk.merge_ms"] = 1e3 * merge / m;
      v["walk.ms"] = 1e3 * walk / m;
      v["net.deliver_ms"] = 1e3 * deliver / m;
      v["walk.mtokens_per_s"] = walk > 0 ? token_rounds / walk / 1e6 : 0.0;
    }
    emit(out);
  });
}

void run_stack(const ScenarioSpec& spec, const Params& p, ThreadPool* pool,
               Ledger& out, const Emit& emit) {
  if (spec.workload.items == 0 && spec.workload.searchers_per_batch > 0) {
    throw std::invalid_argument("ledger: searches need items > 0");
  }
  const auto probe_before = probe_median(*p.probe, kSetupProbes);
  const auto t_setup = Clock::now();
  const double cpu_setup = cpu_secs();
  BuiltSystem built = build_stack("churnstore", spec.system_config(),
                                  spec.extras);
  P2PSystem& sys = *built.system;
  if (pool != nullptr) sys.set_shard_pool(pool);
  StorageService& svc = *built.service;
  Rng rng(mix64(spec.seed ^ 0x6c6564676572ULL));  // "ledger"
  std::uint64_t item_counter = 0;
  auto next_item = [&] { return mix64(spec.seed * 1000003 + item_counter++) | 1; };
  auto random_peer = [&] { return static_cast<Vertex>(rng.next_below(sys.n())); };

  sys.run_rounds(sys.warmup_rounds());
  std::vector<ItemId> items;
  for (std::uint32_t i = 0; i < spec.workload.items; ++i) {
    const ItemId item = next_item();
    int attempt = 0;
    while (!svc.try_store(random_peer(), item)) {
      if (++attempt == 16) throw std::runtime_error("preload store refused 16 times");
      sys.run_round();
    }
    items.push_back(item);
  }
  record_setup(p, out, cpu_setup, t_setup, probe_before);
  if (p.measure_rounds == 0) {
    emit(out);
    return;
  }

  struct Issued {
    std::uint64_t sid;
    Round round;
  };
  std::vector<Issued> measured;
  std::uint64_t stores_attempted = 0, stores_acked = 0, store_calls = 0;
  double api_store_s = 0, api_search_s = 0;
  // Issues one round's requests; `window` marks the measured ones. Each
  // call is timed only on traced runs. A refused store means the creator is
  // not ready yet (too few walk samples to form a committee), so the store
  // is retried from other peers, up to kStoreTries creators.
  constexpr int kStoreTries = 8;
  auto issue = [&](bool window) {
    for (std::uint32_t i = 0; i < p.stores; ++i) {
      const ItemId item = next_item();
      bool ok = false;
      for (int attempt = 0; attempt < kStoreTries && !ok; ++attempt) {
        const Vertex creator = random_peer();
        const auto t0 = Clock::now();
        ok = svc.try_store(creator, item);
        if (p.traced && window) api_store_s += secs_between(t0, Clock::now());
        if (window) ++store_calls;
      }
      if (window) {
        ++stores_attempted;
        stores_acked += ok ? 1 : 0;
      }
    }
    for (std::uint32_t i = 0; i < spec.workload.searchers_per_batch; ++i) {
      // Users search for what the system still holds: a target whose every
      // copy churn has destroyed is drawn again (store.items_lost counts
      // such items). Item ids are odd, so 0 means none is left.
      ItemId item = 0;
      for (std::size_t tries = 0; tries < items.size() && item == 0; ++tries) {
        const ItemId pick = items[rng.next_below(items.size())];
        if (svc.copies_alive(pick) > 0) item = pick;
      }
      if (item == 0) continue;
      const Vertex initiator = random_peer();
      const Round now = sys.round();
      const auto t0 = Clock::now();
      const std::uint64_t sid = svc.begin_search(initiator, item);
      if (p.traced && window) api_search_s += secs_between(t0, Clock::now());
      if (window) measured.push_back({sid, now});
    }
  };

  const std::uint32_t timeout = svc.search_timeout();
  const auto t_ramp = Clock::now();
  for (std::uint32_t i = 0; i < timeout; ++i) {
    issue(false);
    sys.run_round();
  }
  out.values["ramp_s"] = secs_between(t_ramp, Clock::now());

  for_each_window(p.windows, [&] {
    for (std::uint32_t i = 0; i < kWarmRounds; ++i) {
      issue(false);
      sys.run_round();
    }
    sys.enable_phase_timing(p.traced);
    sys.reset_phase_timers();
    sys.reset_heap_stats();
    const Counters before = Counters::take(sys.network());
    double token_rounds = 0;
    std::uint64_t broken_rounds = 0;
    out.reserve_rounds(p.measure_rounds);
    for (std::uint32_t i = 0; i < p.measure_rounds; ++i) {
      probe_round(p, out);
      const double cpu0 = cpu_secs();
      const auto t0 = Clock::now();
      issue(true);
      sys.run_round();
      out.add_round(t0, cpu0);
      token_rounds += static_cast<double>(sys.soup().tokens_alive());
      if (!conserved(sys.network(), sys.soup())) ++broken_rounds;
    }
    const Counters after = Counters::take(sys.network());
    const RoundPhaseTimers phases = sys.phase_timers();
    const std::vector<double> protocol_secs = sys.protocol_secs();
    const RoundHeapStats heap = sys.heap_stats();
    const std::size_t tokens_alive = sys.soup().tokens_alive();
    const auto items_lost = static_cast<double>(std::count_if(
        items.begin(), items.end(),
        [&](ItemId item) { return svc.copies_alive(item) == 0; }));
    const auto active = static_cast<double>(sys.searches().active_searches());
    sys.enable_phase_timing(false);

    auto pending = [&] {
      return std::any_of(measured.begin(), measured.end(), [&](const Issued& s) {
        const WorkloadOutcome o = svc.search_outcome(s.sid);
        return !o.located && !o.done;
      });
    };
    const auto t_drain = Clock::now();
    std::uint32_t drain_rounds = 0;
    for (; drain_rounds < timeout + 4 && pending(); ++drain_rounds) sys.run_round();
    out.values["drain_s"] = secs_between(t_drain, Clock::now());
    out.values["drain_rounds"] = drain_rounds;

    std::uint64_t located = 0, censored = 0;
    for (const Issued& s : measured) {
      const WorkloadOutcome o = svc.search_outcome(s.sid);
      if (o.located) {
        ++located;
        out.search_latency_rounds.push_back(
            static_cast<double>(o.located_round - s.round));
      } else if (o.censored) {
        ++censored;
      }
    }

    auto& v = out.values;
    const double m = p.measure_rounds;
    v["requests_completed"] = static_cast<double>(stores_acked + located);
    // A censored search lost its initiator to churn before it located: no
    // one is left to serve, so it is withdrawn, not failed. search.ok_frac
    // still counts it against the issued total.
    v["ops_attempted"] =
        static_cast<double>(stores_attempted + measured.size() - censored);
    v["ops_failed"] = static_cast<double>(stores_attempted - stores_acked +
                                          measured.size() - located - censored);
    v["walk.conserved"] = broken_rounds == 0 ? 1.0 : 0.0;
    v["store.attempted"] = static_cast<double>(stores_attempted);
    v["store.ok_frac"] = stores_attempted > 0
                             ? static_cast<double>(stores_acked) / stores_attempted
                             : 1.0;
    v["search.issued"] = static_cast<double>(measured.size());
    v["search.ok_frac"] = measured.empty() ? 1.0
                                           : static_cast<double>(located) /
                                                 static_cast<double>(measured.size());
    v["search.censored"] = static_cast<double>(censored);
    v["search.active"] = active;
    v["store.items_lost"] = items_lost;
    record_counters(out, sys.network(), before, after, tokens_alive,
                    p.measure_rounds);
    v["util.heap_allocs"] = heap.allocs / m;
    v["util.heap_bytes"] = heap.bytes / m;
    if (p.traced) {
      auto layer = [&](const char* protocol) {
        for (std::size_t i = 0; i < sys.protocols().size(); ++i) {
          if (sys.protocols()[i]->name() == protocol) return 1e3 * protocol_secs[i] / m;
        }
        return 0.0;
      };
      v["net.churn_ms"] = 1e3 * phases.churn_secs / m;
      v["walk.ms"] = layer("token-soup");
      v["committee.ms"] = layer("committee");
      v["landmark.ms"] = layer("landmark");
      v["store.ms"] = layer("store");
      v["search.ms"] = layer("search");
      v["net.deliver_ms"] = 1e3 * phases.deliver_secs / m;
      v["core.dispatch_ms"] = 1e3 * phases.dispatch_secs / m;
      v["api.ms"] = 1e3 * (api_store_s + api_search_s) / m;
      v["api.store_us"] = store_calls > 0 ? 1e6 * api_store_s / store_calls : 0.0;
      v["api.search_us"] =
          measured.empty() ? 0.0 : 1e6 * api_search_s / static_cast<double>(measured.size());
      const double walk_s = v["walk.ms"] * m / 1e3;
      v["walk.mtokens_per_s"] = walk_s > 0 ? token_rounds / walk_s / 1e6 : 0.0;
    }
    emit(out);
  });
}

/// Round wall time the timed layers do not cover (serial glue between the
/// phases, the heap probe, round-end hooks), per measured round.
void record_other(Ledger& out) {
  double mean = 0;
  for (const double ms : out.round_ms) mean += ms;
  mean /= static_cast<double>(out.round_ms.size());
  double covered = 0;
  for (const char* key : {"net.churn_ms", "walk.ms", "committee.ms",
                          "landmark.ms", "store.ms", "search.ms",
                          "net.deliver_ms", "core.dispatch_ms", "api.ms"}) {
    const auto it = out.values.find(key);
    if (it != out.values.end()) covered += it->second;
  }
  out.values["core.other_ms"] = mean - covered;
}

void print_json(const Ledger& out, const ScenarioSpec& spec,
                const std::string& kind, std::size_t threads) {
  std::printf("{\"kind\": \"%s\", \"n\": %u, \"seed\": %" PRIu64
              ", \"shards\": %u, \"threads\": %zu",
              kind.c_str(), spec.n(), spec.seed, spec.shards, threads);
#if defined(CHURNSTORE_NT_STORES)
  std::printf(", \"nt_stores\": true");
#else
  std::printf(", \"nt_stores\": false");
#endif
  std::printf(", \"heap_sentinel\": %s, \"pmu\": %s, \"compiler\": \"%s\"",
              HeapSentinel::available() ? "true" : "false",
              PerfCounters().available() ? "true" : "false", __VERSION__);
  const std::uint64_t peak = peak_rss_bytes();
  const std::uint64_t engine = peak > HostProbe::kBytes ? peak - HostProbe::kBytes : 0;
  std::printf(", \"maxrss_mb\": %.17g",
              static_cast<double>(engine) / (1024.0 * 1024.0));
  for (const auto& [key, value] : out.values) {
    std::printf(", \"%s\": %.17g", key.c_str(), value);
  }
  auto array = [](const char* key, const std::vector<double>& xs) {
    std::printf(", \"%s\": [", key);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::printf("%s%.17g", i ? ", " : "", xs[i]);
    }
    std::printf("]");
  };
  array("round_ms", out.round_ms);
  array("round_cpu_ms", out.round_cpu_ms);
  array("probe_compute_ms", out.probe_compute_ms);
  array("probe_memory_ms", out.probe_memory_ms);
  array("search_latency_rounds", out.search_latency_rounds);
  std::printf("}\n");
}

}  // namespace
}  // namespace churnstore

int main(int argc, char** argv) {
  using namespace churnstore;
  for (const char* key : {"ledger", "stores", "windows", "traced"}) {
    ScenarioSpec::accept_extra_key(key);
  }
  try {
    const Cli cli(argc, argv);
    const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
    const std::string kind = spec.extra("ledger", "");
    if (kind != "soup" && kind != "stack") {
      throw std::invalid_argument("ledger= must be soup or stack");
    }
    const std::int64_t rounds = spec.extra_int("measure-rounds", 100);
    const std::int64_t stores = spec.extra_int("stores", 0);
    const std::int64_t windows = spec.extra_int("windows", 0);
    if (rounds < 0 || rounds > 1000000 || stores < 0 || stores > 1000000 ||
        windows < 0 || windows > 1000) {
      throw std::invalid_argument(
          "measure-rounds must be in [0, 1e6], stores in [0, 1e6] and "
          "windows in [0, 1000]");
    }
    Params p;
    p.measure_rounds = static_cast<std::uint32_t>(rounds);
    p.stores = static_cast<std::uint32_t>(stores);
    p.windows = static_cast<std::uint32_t>(windows);
    p.traced = cli.get_bool("traced", false);
    if (p.windows > 0 && spec.shards > 1) {
      throw std::invalid_argument("windows= needs shards=1: a pool cannot fork");
    }
    HostProbe probe;
    p.probe = &probe;

    // An unsharded round never uses a pool; do not start idle workers.
    std::optional<ThreadPool> pool;
    if (spec.shards > 1) pool.emplace(spec.threads);
    ThreadPool* workers = pool ? &*pool : nullptr;
    const std::size_t threads = pool ? pool->size() : 0;
    const Emit emit = [&](Ledger& out) {
      if (p.traced && !out.round_ms.empty()) record_other(out);
      print_json(out, spec, kind, threads);
    };
    Ledger out;
    if (kind == "soup") {
      run_soup(spec, p, workers, out, emit);
    } else {
      run_stack(spec, p, workers, out, emit);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
