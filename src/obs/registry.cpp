#include "obs/registry.h"

#include <string>
#include <utility>

#include "core/system.h"
#include "util/heap_sentinel.h"

namespace churnstore {

void MetricsRegistry::add(std::string name, Read read) {
  entries_.push_back(Entry{std::move(name), std::move(read), nullptr});
}

void MetricsRegistry::add_gated(std::string name, Read read, Ok ok) {
  entries_.push_back(Entry{std::move(name), std::move(read), std::move(ok)});
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    Sample s;
    s.name = e.name;
    s.ok = !e.ok || e.ok();
    s.value = s.ok ? e.read() : 0.0;
    out.push_back(std::move(s));
  }
  return out;
}

void register_standard_metrics(MetricsRegistry& reg, P2PSystem& sys) {
  Metrics& m = sys.network().metrics();
  const auto counter = [&reg, &m](const char* name,
                                  std::uint64_t (Metrics::*get)()
                                      const noexcept) {
    reg.add(name, [&m, get] { return static_cast<double>((m.*get)()); });
  };
  counter("rounds", &Metrics::rounds);
  counter("bits.total", &Metrics::total_bits);
  counter("messages.total", &Metrics::total_messages);
  counter("messages.dropped", &Metrics::dropped_messages);
  counter("tokens.spawned", &Metrics::tokens_spawned);
  counter("tokens.completed", &Metrics::tokens_completed);
  counter("tokens.lost", &Metrics::tokens_lost);
  counter("committees.formed", &Metrics::committees_formed);
  counter("committees.lost", &Metrics::committees_lost);
  counter("landmarks.created", &Metrics::landmarks_created);
  reg.add("churn.events", [&sys] {
    return static_cast<double>(sys.network().churn_events());
  });
  reg.add("bits.node_round.last_max",
          [&m] { return static_cast<double>(m.last_round_max_bits()); });
  reg.add("bits.node_round.last_mean",
          [&m] { return m.last_round_mean_bits(); });

  // Wall-clock phase timers, in round order with one secs.<protocol name>
  // per registered protocol: valid only while phase timing is enabled.
  const auto timing = [&sys] { return sys.phase_timers().enabled; };
  const auto phase = [&reg, &sys, &timing](const char* name,
                                           double RoundPhaseTimers::*field) {
    reg.add_gated(
        name, [&sys, field] { return sys.phase_timers().*field; }, timing);
  };
  phase("secs.churn", &RoundPhaseTimers::churn_secs);
  for (std::size_t pi = 0; pi < sys.protocols().size(); ++pi) {
    reg.add_gated(
        "secs." + std::string(sys.protocols()[pi]->name()),
        [&sys, pi] { return sys.protocol_secs()[pi]; }, timing);
  }
  phase("secs.deliver", &RoundPhaseTimers::deliver_secs);
  phase("secs.dispatch", &RoundPhaseTimers::dispatch_secs);

  // Heap-sentinel round stats: "unknown" (not zero) when the sentinel is
  // compiled out or force-disabled.
  const auto heap = [&reg, &sys](const char* name,
                                 std::uint64_t RoundHeapStats::*field) {
    reg.add_gated(
        name,
        [&sys, field] {
          return static_cast<double>(sys.heap_stats().*field);
        },
        [] { return HeapSentinel::available(); });
  };
  heap("heap.rounds", &RoundHeapStats::rounds);
  heap("heap.allocs", &RoundHeapStats::allocs);
  heap("heap.frees", &RoundHeapStats::frees);
  heap("heap.bytes", &RoundHeapStats::bytes);
}

}  // namespace churnstore
