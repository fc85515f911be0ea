// Request-lifecycle tracing: per-hop spans for lookups/searches/probes,
// drained into per-request-class latency and hop histograms.
//
// The trace stream obeys the same determinism contract as the message
// stream (src/core/protocol.h): events emitted from sharded hooks are
// staged on per-shard arena-backed lanes and merged in canonical
// (phase, shard, vertex) order — the lanes flush at exactly the points
// Network::flush_shard_lanes merges the message lanes — so the byte
// stream of trace events is bit-identical for EVERY shards= value,
// serial or pooled (tests/sharded_engine_test.cpp pins this). Serial
// code (request start/finish outside sharded hooks) appends straight to
// the merged log.
//
// Sampling is deterministic: a trace id is sampled iff
// stream_rng(sample_key, id).next_below(sample_every) == 0, a pure
// function of (seed, id) with no wall-clock or global state, so the
// SAME requests are traced in every run of the same seed regardless of
// shard count or sampling decisions elsewhere.
//
// Heap discipline (PR-9 contract): lane appends draw from the owning
// shard's arena; the merged log and the per-class histograms are
// pre-grown/recycled buffers that reach steady-state capacity after
// warm-up, so steady-state rounds with tracing enabled perform ZERO
// global-heap allocations (tests/heap_quiesce_test.cpp measures this).
// The optional per-round Consumer (the obs exporters) is explicitly
// cold-path: file IO and JSON formatting allocate, and that cost is
// documented as exporter overhead, not engine traffic.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/types.h"
#include "stats/histogram.h"
#include "util/arena.h"
#include "util/rng.h"

namespace churnstore {

class Network;

/// Which request lifecycle a span belongs to; selects the Histogram pair
/// (latency-in-rounds, hops) the completed span drains into.
enum class RequestClass : std::uint8_t {
  kChordSearch = 0,  ///< chord_net get(): find_successor + fetch
  kChordStore = 1,   ///< chord_net put(): find_successor + store ack
  kSearch = 2,       ///< churnstore SearchManager locate + fetch
  kStore = 3,        ///< churnstore SearchManager::store (begin-only: no ack)
  kWalkerProbe = 4,  ///< k-walker baseline probe
};
inline constexpr std::size_t kRequestClassCount = 5;

/// Short stable name for exports ("chord-search", "search", ...).
[[nodiscard]] const char* request_class_name(RequestClass cls) noexcept;

/// Event kind within a span.
enum class TraceEv : std::uint8_t {
  kBegin = 0,        ///< request issued (detail unused)
  kHop = 1,          ///< one routing/fetch hop (detail = hop kind, hop = index)
  kEndOk = 2,        ///< success (detail = latency rounds, hop = hop metric)
  kEndFail = 3,      ///< definitive failure (same payload as kEndOk)
  kEndCensored = 4,  ///< initiator churned mid-request; excluded from hists
};

/// Hop-kind codes carried in TraceEvent::detail on kHop events.
inline constexpr std::uint32_t kHopIssue = 0;    ///< initiator issued a hop
inline constexpr std::uint32_t kHopForward = 1;  ///< router forwarded in place
inline constexpr std::uint32_t kHopFetch = 2;    ///< data-fetch attempt

/// One fixed-size POD trace record (24 bytes). The S-invariance test
/// compares raw event bytes, so the layout is part of the contract.
struct TraceEvent {
  std::uint64_t trace_id = 0;  ///< sampled request id (never 0 when traced)
  std::uint32_t round = 0;     ///< round stamp at emission
  std::uint32_t vertex = 0;    ///< vertex the event happened at
  std::uint32_t detail = 0;    ///< kHop: hop kind; kEnd*: latency in rounds
  std::uint16_t hop = 0;       ///< kHop: hop index; kEnd*: class hop metric
  std::uint8_t cls = 0;        ///< RequestClass
  std::uint8_t ev = 0;         ///< TraceEv
};
static_assert(sizeof(TraceEvent) == 24, "trace events are a 24-byte POD");

/// Convenience constructor centralizing the narrowing casts.
[[nodiscard]] inline TraceEvent make_trace_event(
    std::uint64_t trace_id, Round round, Vertex vertex, std::uint64_t detail,
    std::uint64_t hop, RequestClass cls, TraceEv ev) noexcept {
  TraceEvent e;
  e.trace_id = trace_id;
  e.round = static_cast<std::uint32_t>(round);
  e.vertex = static_cast<std::uint32_t>(vertex);
  e.detail = static_cast<std::uint32_t>(detail);
  e.hop = hop > 0xffff ? 0xffff : static_cast<std::uint16_t>(hop);
  e.cls = static_cast<std::uint8_t>(cls);
  e.ev = static_cast<std::uint8_t>(ev);
  return e;
}

/// Collects the trace stream of one run. Borrowed by Network (installed
/// with Network::set_trace_collector); must outlive the rounds it
/// observes and be destroyed BEFORE the Network whose shard arenas back
/// its lanes. Protocols reach it through ShardContext::trace (sharded
/// hooks) and Network::trace_serial (serial context).
class TraceCollector {
 public:
  /// sample_every = k samples 1/k of trace ids (0 and 1 both mean "all").
  TraceCollector(std::uint64_t seed, std::uint32_t sample_every);

  /// Size one event lane per shard, element storage drawn from that
  /// shard's arena. Call once, before the first traced round.
  void bind(Network& net);

  /// Deterministic sampling decision for a request id (pure in seed+id).
  [[nodiscard]] bool sampled(std::uint64_t id) const noexcept {
    if (sample_every_ <= 1) return true;
    return stream_rng(sample_key_, id).next_below(sample_every_) == 0;
  }
  [[nodiscard]] std::uint32_t sample_every() const noexcept {
    return sample_every_;
  }

  /// Append from serial context (request start/finish, merge epilogues):
  /// goes straight to the merged log at the current position.
  // shardcheck:hot-path(per-round serial trace append; the merged log is cleared, capacity kept, every end_round, so steady-state appends recycle storage)
  void record(const TraceEvent& ev) { log_.push_back(ev); }

  /// Append from a sharded hook: staged on the shard's arena-backed lane,
  /// merged canonically at the next flush_lanes().
  // shardcheck:sharded-hook(per-shard lane append reached from protocol sharded hooks via ShardContext::trace; touches only the caller shard's lane)
  void lane_append(std::uint32_t shard, const TraceEvent& ev) {
    lanes_[shard].push_back(ev);
  }

  /// Merge staged lane events into the log in ascending shard order.
  /// Network::flush_shard_lanes calls this at exactly the message-lane
  /// merge points, so trace order is pinned to the same canonical
  /// schedule for every shard count.
  void flush_lanes();

  /// End-of-round drain: route completed spans into the per-class
  /// histograms and span counters, hand the round's raw events to the
  /// consumer (if any), then recycle the log. Called by P2PSystem after
  /// each round when the collector is installed; drivers stepping the
  /// Network directly call it themselves.
  void end_round(Round round);

  /// Cold-path sink for the round's merged events (exporters). Runs
  /// inside end_round before the log recycles; allocation there is
  /// exporter overhead, outside the heap-quiet claim.
  using Consumer = std::function<void(Round round, const TraceEvent* events,
                                      std::size_t count)>;
  void set_consumer(Consumer consumer) { consumer_ = std::move(consumer); }

  /// --- drained results ----------------------------------------------------
  [[nodiscard]] const Histogram& latency(RequestClass cls) const noexcept {
    return latency_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] const Histogram& hops(RequestClass cls) const noexcept {
    return hops_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t spans_begun(RequestClass cls) const noexcept {
    return begun_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t spans_ok(RequestClass cls) const noexcept {
    return ok_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t spans_failed(RequestClass cls) const noexcept {
    return failed_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t spans_censored(RequestClass cls) const noexcept {
    return censored_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return events_recorded_;
  }

 private:
  using Lane = std::vector<TraceEvent, ArenaAllocator<TraceEvent>>;

  std::uint64_t sample_key_;
  std::uint32_t sample_every_;
  // shardcheck:arena-backed(one lane per shard, element storage from that shard's arena; the outer vector is sized once in bind and never grows)
  std::vector<Lane> lanes_;
  // shardcheck:arena-backed(merged per-round event log: cleared capacity-kept every end_round, so steady-state appends recycle global-heap storage acquired during warm-up)
  std::vector<TraceEvent> log_;
  std::vector<Histogram> latency_;  // kRequestClassCount entries, fixed in ctor
  std::vector<Histogram> hops_;     // kRequestClassCount entries, fixed in ctor
  std::array<std::uint64_t, kRequestClassCount> begun_{};
  std::array<std::uint64_t, kRequestClassCount> ok_{};
  std::array<std::uint64_t, kRequestClassCount> failed_{};
  std::array<std::uint64_t, kRequestClassCount> censored_{};
  std::uint64_t events_recorded_ = 0;
  Consumer consumer_;
};

}  // namespace churnstore
