// The synchronous dynamic network with churn (paper section 2.1).
//
// Vertex-slot model: the topology is a d-regular expander on n vertex
// slots; each slot is occupied by one peer. Churn replaces the peer at a
// slot with a fresh peer (every churn hook hears of it, and each protocol
// drops the lost peer's state); edge dynamics rewire the graph. This
// realizes the paper's model exactly: |V^r| = n at all times, up to C
// vertices replaced per round, every G^r a d-regular non-bipartite
// expander, and the adversary's choices independent of protocol
// randomness.
//
// Round structure (paper section 2.1):
//   1. begin_round(): adversary applies churn + edge changes; G^r is fixed;
//      nodes learn their current neighbors.
//   2. Protocols run: random-walk tokens advance along neighbor edges
//      (TokenSoup), and nodes send() direct messages to known peer ids.
//   3. deliver(): messages sent this round reach live targets by the end of
//      the round; messages to churned-out peers vanish.
//
// The message pipe. A message is built once and moved into the lane it is
// sent on (one per shard, plus one serial lane), a run of 64-byte slots in
// the lane's arena, one cache line per message; it stays there until the
// round after it is dispatched. The canonical outbox order is a list of
// (lane, first, end) runs — a serial send opens or extends a serial run,
// each lane flush appends one run per non-empty shard lane in ascending
// shard order. deliver() walks the runs once, reading each message's dst
// and charge from its line, and files (message pointer, vertex, bits) by
// destination shard; each destination shard counting-sorts its bucket into
// a flat pointer array with per-vertex end offsets, so every inbox is a
// slice of pointers in outbox order, and charges each receiver from the
// filed bits without touching the message again. The delivered lane buffers
// are then swapped into per-lane "held" buffers (no element moves, so the
// pointers stay valid), dispatch reads them in place while its replies fill
// the emptied lanes, and the next begin_round() releases them: it destroys
// only the messages that own an out-of-line block (each lane lists them),
// which returns the blocks to the arenas they came from.
//
// Two hooks couple the network to the layers above it:
//   add_churn_hook        — called for every replaced vertex slot
//                           (Protocol::on_attach registers on_churn here);
//   set_adaptive_targeter — asked by the kAdaptive adversary before each
//                           round to choose victims; see
//                           AdversaryKind::kAdaptive.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/rewirer.h"
#include "net/adversary.h"
#include "net/config.h"
#include "net/peer_index.h"
#include "net/message.h"
#include "net/metrics.h"
#include "obs/trace.h"
#include "net/types.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/sharding.h"

namespace churnstore {

class ThreadPool;

/// The kAdaptive adversary's question to the adaptive targeter at the start
/// of each round. The targeter appends up to `quota` protocol-chosen
/// victims; any remaining quota is filled uniformly when the ChurnSpec says
/// to pad. Installing a targeter makes the adversary NON-oblivious — the
/// capability exists to demonstrate why the paper's obliviousness
/// assumption is necessary (bench adversary scenario).
struct AdaptiveTargetQuery {
  std::uint32_t quota = 0;
  std::vector<Vertex> victims;
};

/// Read-only view of the messages delivered to one vertex, in outbox order.
/// Valid until the next Network::begin_round() or Network::deliver().
class InboxView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    iterator() = default;
    explicit iterator(const Message* const* at) noexcept : at_(at) {}
    reference operator*() const noexcept { return **at_; }
    pointer operator->() const noexcept { return *at_; }
    iterator& operator++() noexcept {
      ++at_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator prev = *this;
      ++at_;
      return prev;
    }
    friend bool operator==(iterator a, iterator b) noexcept {
      return a.at_ == b.at_;
    }

   private:
    const Message* const* at_ = nullptr;
  };

  InboxView() = default;
  InboxView(const Message* const* first, const Message* const* last) noexcept
      : first_(first), last_(last) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
  [[nodiscard]] const Message& operator[](std::size_t i) const noexcept {
    return *first_[i];
  }
  [[nodiscard]] iterator begin() const noexcept { return iterator(first_); }
  [[nodiscard]] iterator end() const noexcept { return iterator(last_); }

 private:
  const Message* const* first_ = nullptr;
  const Message* const* last_ = nullptr;
};

class Network {
 public:
  explicit Network(const SimConfig& config);

  /// --- topology / population ------------------------------------------
  [[nodiscard]] std::uint32_t n() const noexcept { return config_.n; }
  [[nodiscard]] std::uint32_t degree() const noexcept { return config_.degree; }
  [[nodiscard]] Round round() const noexcept { return round_; }
  [[nodiscard]] const RegularGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  [[nodiscard]] PeerId peer_at(Vertex v) const noexcept { return peer_at_[v]; }
  [[nodiscard]] Round birth_round(Vertex v) const noexcept { return birth_[v]; }
  /// Vertex currently hosting `p`, or nullopt if p has left the network.
  [[nodiscard]] std::optional<Vertex> find_vertex(PeerId p) const noexcept;
  [[nodiscard]] bool is_alive(PeerId p) const noexcept {
    return vertex_of_.contains(p);
  }

  /// --- round driver -----------------------------------------------------
  /// Advances to the next round: adversary churn + edge dynamics. Returns
  /// the churned vertex set (fresh peers already installed). Destroys the
  /// messages the last deliver() handed out, so every inbox reads empty.
  /// Throws std::overflow_error rather than mint a peer id above
  /// kMaxPeerId.
  const std::vector<Vertex>& begin_round();

  /// Queue a direct message from the peer at vertex `from` (charged to it).
  /// Serial-context sends only; from shard tasks use send_sharded.
  void send(Vertex from, const Message& m);
  void send(Vertex from, Message&& m);

  /// Queue a message from shard task `shard` (one lane per shard, so
  /// concurrent shards never contend). The sender is charged now, on the
  /// shard's own counters; the message count and the global bit total are
  /// settled when the lane flushes, which also places the lane's new
  /// messages behind the serial ones in ascending shard order.
  /// Deterministic-merge contract: a shard task that iterates its contiguous
  /// vertex range in ascending order makes the merged stream equal to the
  /// ascending global vertex order — independent of shard count.
  /// Throws std::logic_error (and queues nothing) when `from` is not a
  /// vertex of `shard`: charging it from this task would race.
  void send_sharded(std::uint32_t shard, Vertex from, Message&& m);

  /// Append each shard lane's new messages to the outbox order as one run,
  /// in ascending shard order. The round driver calls this after EACH
  /// protocol's sharded phase: flushing per phase keeps the outbox ordered
  /// [protocol A in vertex order, protocol B in vertex order, ...] for
  /// every shard count — lanes never interleave two protocols' sends.
  /// deliver() flushes once more for stragglers.
  void flush_shard_lanes();

  /// Deliver all queued messages; drops messages whose destination peer is
  /// gone. Inbox filing runs sharded by destination (per-vertex order is
  /// the outbox order either way). Ends per-round metric accounting.
  void deliver();

  /// The messages the last deliver() filed for `v`, in outbox order. Valid
  /// until the next begin_round() or deliver(); empty before the first
  /// deliver().
  [[nodiscard]] InboxView inbox(Vertex v) const noexcept {
    const std::uint32_t s = shards_.shard_of(v);
    const InboxShard& box = inboxes_[s];
    if (box.filed.empty()) return {};
    const std::uint32_t first = v == shards_.begin(s) ? box.base
                                                       : inbox_ends_[v - 1];
    return {inbox_ptrs_.data() + first, inbox_ptrs_.data() + inbox_ends_[v]};
  }

  /// Charge non-message processing work (e.g. token forwarding) to a node.
  void charge_processing(Vertex v, std::uint64_t bits) noexcept {
    metrics_.charge_bits(v, bits);
  }

  /// --- request tracing -----------------------------------------------------
  /// Install (or clear, with nullptr) the trace collector. Borrowed, not
  /// owned; the collector must be bound to THIS network (its lanes draw
  /// from the shard arenas) and destroyed before it. With none installed
  /// the trace hooks below are branch-and-return no-ops.
  void set_trace_collector(TraceCollector* tc) noexcept { trace_ = tc; }
  [[nodiscard]] TraceCollector* trace_collector() const noexcept {
    return trace_;
  }
  /// Stage a trace event on `shard`'s lane (sharded hooks route here via
  /// ShardContext::trace); merged canonically at the next lane flush.
  // shardcheck:sharded-hook(forwards to the caller shard's trace lane; no cross-shard state)
  void trace_sharded(std::uint32_t shard, const TraceEvent& ev) {
    if (trace_ != nullptr) trace_->lane_append(shard, ev);
  }
  /// Record a trace event from serial context (request start/finish).
  // shardcheck:hot-path(appends to the collector's recycled merged log)
  void trace_serial(const TraceEvent& ev) {
    if (trace_ != nullptr) trace_->record(ev);
  }

  /// --- coupling hooks -----------------------------------------------------
  /// Call `hook` for every vertex slot whose peer is replaced, once the
  /// fresh peer is installed. Hooks run in registration order, all of them
  /// for one vertex before the next vertex is churned.
  void add_churn_hook(
      std::function<void(Vertex, PeerId old_peer, PeerId new_peer)> hook) {
    churn_hooks_.push_back(std::move(hook));
  }
  /// Install (or clear, with an empty function) the kAdaptive adversary's
  /// targeter. With none, no victim is chosen from protocol state.
  void set_adaptive_targeter(
      std::function<void(AdaptiveTargetQuery&)> targeter) {
    adaptive_targeter_ = std::move(targeter);
  }

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Protocol-facing RNG (separate fork from the adversary's stream).
  [[nodiscard]] Rng& protocol_rng() noexcept { return protocol_rng_; }

  /// Total churn events so far.
  [[nodiscard]] std::uint64_t churn_events() const noexcept { return churn_events_; }

  /// --- sharded execution ---------------------------------------------------
  /// The vertex-slot partition the round engine runs over (SimConfig::shards).
  [[nodiscard]] const ShardPlan& shards() const noexcept { return shards_; }

  /// Install (or clear, with nullptr) the worker pool shard tasks run on.
  /// Borrowed, not owned; without a pool run_sharded degrades to serial with
  /// bit-identical results.
  void set_worker_pool(ThreadPool* pool) noexcept { worker_pool_ = pool; }

  /// Run fn(shard) for every shard of the plan — on the worker pool (caller
  /// helping, so nesting inside a pool task cannot deadlock) when one is
  /// installed, inline otherwise. fn must only mutate state owned by its
  /// shard (or per-shard staging buffers).
  void run_sharded(const std::function<void(std::uint32_t)>& fn);

  /// Shard-local slab allocator (util/arena.h). Only shard `s`'s task may
  /// allocate/free through it during a sharded phase; serial context may
  /// touch any arena between phases.
  [[nodiscard]] Arena& shard_arena(std::uint32_t s) noexcept {
    return *arenas_[s];
  }
  /// The serial lane's arena: it holds the serial lane's slots, and the
  /// round's serial hooks (Protocol::step, the dispatch merges) bind it
  /// (ScopedArenaBind) so the out-of-line blocks of the messages they build
  /// land here instead of on the global heap. Request entry points, which
  /// run between rounds, do not: a burst of requests (the ledger preloads
  /// 512 stores at once) would leave its peak resident in the arena.
  /// Serial context only.
  [[nodiscard]] Arena& serial_arena() noexcept { return *arenas_.back(); }

 private:
  void churn_vertex(Vertex v);
  /// Destroy the held messages and empty every inbox (serial context).
  void release_delivered();

  SimConfig config_;
  Rng topology_rng_;   ///< adversary-side: graph generation + rewiring
  Rng churn_rng_;      ///< adversary-side: victim selection
  Rng protocol_rng_;   ///< algorithm-side: walks, sampling, protocol coins

  RegularGraph graph_;
  Rewirer rewirer_;
  Adversary adversary_;

  std::vector<PeerId> peer_at_;
  std::vector<Round> birth_;
  /// Fixed-capacity open-addressing index: the churn loop's erase/insert
  /// pair is allocation-free, unlike the unordered_map node per event it
  /// replaced (heap-quiet begin_round; see net/peer_index.h).
  PeerIndex vertex_of_;
  PeerId next_peer_ = 1;

  Round round_ = 0;
  std::vector<Vertex> last_churned_;
  // shardcheck:cold-state(adaptive-churn dedup bitmap sized on first adaptive round, cleared in place after)
  std::vector<std::uint8_t> churn_taken_;
  std::vector<std::function<void(Vertex, PeerId, PeerId)>> churn_hooks_;
  std::function<void(AdaptiveTargetQuery&)> adaptive_targeter_;

  ShardPlan shards_;
  /// One arena per shard, then the serial lane's. Declared before every
  /// arena-backed container so the containers are destroyed first (they
  /// return blocks to the arenas).
  std::vector<std::unique_ptr<Arena>> arenas_;

  /// A lane's messages: one 64-byte slot each, in line-aligned blocks of
  /// the lane's arena. Slots are filled by moving a message in; release()
  /// destroys only the messages listed in `spilled_` (those that own an
  /// out-of-line block) and overwrites the rest in place next round.
  class MessageLane {
   public:
    explicit MessageLane(Arena* a) noexcept
        : arena_(a), spilled_(ArenaAllocator<std::uint32_t>(a)) {}
    MessageLane(MessageLane&& o) noexcept
        : arena_(o.arena_),
          slots_(std::exchange(o.slots_, nullptr)),
          size_(std::exchange(o.size_, 0)),
          cap_(std::exchange(o.cap_, 0)),
          spilled_(std::move(o.spilled_)) {}
    MessageLane(const MessageLane&) = delete;
    MessageLane& operator=(const MessageLane&) = delete;
    MessageLane& operator=(MessageLane&&) = delete;
    ~MessageLane();

    [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
    [[nodiscard]] const Message& operator[](std::uint32_t i) const noexcept {
      return slots_[i];
    }
    void push(Message&& m) {
      if (size_ == cap_) grow();
      const Message* at = new (slots_ + size_) Message(std::move(m));
      if (at->words.spilled()) spilled_.push_back(size_);
      ++size_;
    }
    /// Destroy the messages that own a block; empty the lane.
    void release() noexcept;
    void swap(MessageLane& o) noexcept {
      std::swap(arena_, o.arena_);
      std::swap(slots_, o.slots_);
      std::swap(size_, o.size_);
      std::swap(cap_, o.cap_);
      spilled_.swap(o.spilled_);
    }

   private:
    void grow();

    Arena* arena_;
    Message* slots_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
    std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> spilled_;
  };
  /// One send lane, drawing from its shard's arena (the serial lane, the
  /// last one, from the serial arena). `msgs` holds what was sent since the
  /// last deliver(); `held` holds what that deliver() filed, read in place
  /// by dispatch until begin_round() releases it. deliver() swaps the two
  /// buffers, which moves no element.
  struct OutLane {
    MessageLane msgs;
    MessageLane held;
    std::uint64_t bits = 0;     ///< size_bits() sum of msgs[flushed, end)
    std::uint32_t flushed = 0;  ///< msgs[0, flushed) already sit in runs_
    Vertex lo = 0;              ///< the shard's vertex range, [lo, hi): the
    Vertex hi = 0;              ///< send_sharded check (empty for serial)

    OutLane(Arena* a, Vertex begin, Vertex end)
        : msgs(a),
          held(a),
          lo(begin),
          hi(end) {}
  };
  /// A stretch msgs[first, end) of lane `lane`, in canonical outbox order.
  struct Run {
    std::uint32_t lane = 0;
    std::uint32_t first = 0;
    std::uint32_t end = 0;
  };
  /// One delivered message: where it is, who receives it, and its charge
  /// (below 2^32 bits, see WordList), so the receiver charge never reads
  /// the message again.
  struct Filed {
    const Message* m;
    Vertex v;
    std::uint32_t bits;
  };
  /// Per destination shard: the delivered messages in outbox order, and
  /// where the shard's slice of inbox_ptrs_ starts.
  struct InboxShard {
    std::vector<Filed, ArenaAllocator<Filed>> filed;
    std::uint32_t base = 0;  ///< first slot in inbox_ptrs_

    explicit InboxShard(Arena* a) : filed(ArenaAllocator<Filed>(a)) {}
  };

  /// shards_.count() shard lanes, then the serial lane.
  std::vector<OutLane> out_lanes_;
  /// Canonical outbox order since the last deliver(); cleared in place.
  // shardcheck:arena-backed(at most one run per lane per flush plus one per serial burst; capacity steadies within the first rounds)
  std::vector<Run> runs_;
  std::vector<InboxShard> inboxes_;
  /// Delivered messages grouped by vertex: destination shard s owns slots
  /// [base, base + filed.size()); vertex v's inbox ends at inbox_ends_[v]
  /// and starts where v - 1's ends (at base for the shard's first vertex).
  // shardcheck:arena-backed(grows only to the peak delivered count of a round, never shrinks)
  std::vector<const Message*> inbox_ptrs_;
  std::vector<std::uint32_t> inbox_ends_;
  Metrics metrics_;
  std::uint64_t churn_events_ = 0;

  ThreadPool* worker_pool_ = nullptr;
  TraceCollector* trace_ = nullptr;
};

}  // namespace churnstore
