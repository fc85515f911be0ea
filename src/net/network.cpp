#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/regular_generator.h"
#include "util/thread_pool.h"

namespace churnstore {

namespace {

std::uint32_t rewire_swaps(const SimConfig& c) {
  // kRewire touches a quarter of the edges each round.
  return c.edge_dynamics == EdgeDynamics::kRewire ? c.n / 8 : 0;
}

}  // namespace

Network::Network(const SimConfig& config)
    : config_(config),
      topology_rng_(mix64(config.seed ^ 0x746f706fULL)),
      churn_rng_(mix64(config.seed ^ 0x63687572ULL)),
      protocol_rng_(mix64(config.seed ^ 0x70726f74ULL)),
      graph_(random_regular_graph(config.n, config.degree, topology_rng_)),
      rewirer_(rewire_swaps(config), topology_rng_.fork(0x7265)),
      adversary_(config.churn.kind, config.n, churn_rng_.fork(0x6164)),
      peer_at_(config.n, kNoPeer),
      birth_(config.n, 0),
      shards_(config.n, config.shards != 0
                            ? config.shards
                            : std::max(1u, std::thread::hardware_concurrency())),
      inbox_ends_(config.n, 0),
      metrics_(config.n, shards_.count()) {
  arenas_.reserve(shards_.count() + 1);
  out_lanes_.reserve(shards_.count() + 1);
  inboxes_.reserve(shards_.count());
  for (std::uint32_t s = 0; s < shards_.count(); ++s) {
    arenas_.push_back(std::make_unique<Arena>());
    out_lanes_.emplace_back(arenas_.back().get(), shards_.begin(s),
                            shards_.end(s));
    inboxes_.emplace_back(arenas_.back().get());
  }
  arenas_.push_back(std::make_unique<Arena>());  // the serial lane's
  out_lanes_.emplace_back(arenas_.back().get(), 0, 0);
  vertex_of_.init(config.n);
  for (Vertex v = 0; v < config_.n; ++v) {
    peer_at_[v] = next_peer_++;
    vertex_of_.insert(peer_at_[v], v);
  }
}

std::optional<Vertex> Network::find_vertex(PeerId p) const noexcept {
  return vertex_of_.find(p);
}

void Network::churn_vertex(Vertex v) {
  if (next_peer_ > kMaxPeerId) {
    throw std::overflow_error("peer ids exhausted: a walk token carries its "
                              "source id in 48 bits");
  }
  const PeerId old_peer = peer_at_[v];
  vertex_of_.erase(old_peer);
  const PeerId fresh = next_peer_++;
  peer_at_[v] = fresh;
  vertex_of_.insert(fresh, v);
  birth_[v] = round_;
  ++churn_events_;
  for (const auto& hook : churn_hooks_) hook(v, old_peer, fresh);
}

const std::vector<Vertex>& Network::begin_round() {
  ++round_;

  // (1) Adversarial churn: replace up to C peers.
  const std::uint32_t c = config_.churn.per_round(config_.n);
  if (config_.churn.kind == AdversaryKind::kAdaptive) {
    // Non-oblivious: ask the targeter for protocol-state-informed victims
    // first, pad the quota with uniform picks.
    last_churned_.clear();
    if (churn_taken_.size() != config_.n) churn_taken_.assign(config_.n, 0);
    AdaptiveTargetQuery query;
    query.quota = c;
    if (adaptive_targeter_) adaptive_targeter_(query);
    for (const Vertex v : query.victims) {
      if (last_churned_.size() >= c) break;
      if (v < config_.n && !churn_taken_[v]) {
        churn_taken_[v] = 1;
        last_churned_.push_back(v);
      }
    }
    while (config_.churn.adaptive_pad_uniform && last_churned_.size() < c) {
      const auto v = static_cast<Vertex>(churn_rng_.next_below(config_.n));
      if (!churn_taken_[v]) {
        churn_taken_[v] = 1;
        last_churned_.push_back(v);
      }
    }
    for (const Vertex v : last_churned_) churn_taken_[v] = 0;  // leave zeroed
  } else {
    adversary_.select(round_, c, birth_, last_churned_);
  }
  for (const Vertex v : last_churned_) churn_vertex(v);

  // (2) Adversarial edge dynamics.
  switch (config_.edge_dynamics) {
    case EdgeDynamics::kStatic:
      break;
    case EdgeDynamics::kRewire:
      rewirer_.apply(graph_);
      break;
    case EdgeDynamics::kRegenerate:
      graph_ = random_regular_graph(config_.n, config_.degree, topology_rng_);
      break;
  }

  // (3) Release the last delivery: its messages die here, in serial context,
  // so their out-of-line blocks return to the arenas they came from.
  release_delivered();
  return last_churned_;
}

void Network::release_delivered() {
  for (OutLane& lane : out_lanes_) lane.held.release();
  for (InboxShard& box : inboxes_) box.filed.clear();
}

Network::MessageLane::~MessageLane() {
  release();
  if (slots_ != nullptr) arena_->deallocate(slots_, cap_ * sizeof(Message));
}

void Network::MessageLane::release() noexcept {
  for (const std::uint32_t i : spilled_) slots_[i].~Message();
  spilled_.clear();
  size_ = 0;
}

void Network::MessageLane::grow() {
  // Arena blocks of a cache line or more are line-aligned, so every slot
  // is one line. Moving a message copies its line and leaves the source
  // without a block, so the old slots need no destruction.
  const std::uint32_t cap = cap_ == 0 ? 64 : 2 * cap_;
  auto* slots = static_cast<Message*>(arena_->allocate(cap * sizeof(Message)));
  for (std::uint32_t i = 0; i < size_; ++i) {
    new (slots + i) Message(std::move(slots_[i]));
  }
  if (slots_ != nullptr) arena_->deallocate(slots_, cap_ * sizeof(Message));
  slots_ = slots;
  cap_ = cap;
}

void Network::send(Vertex from, const Message& m) { send(from, Message(m)); }

void Network::send(Vertex from, Message&& m) {
  metrics_.charge_bits(from, m.size_bits());
  metrics_.count_message();
  const auto serial = static_cast<std::uint32_t>(out_lanes_.size() - 1);
  MessageLane& msgs = out_lanes_[serial].msgs;
  if (runs_.empty() || runs_.back().lane != serial) {
    const auto at = static_cast<std::uint32_t>(msgs.size());
    runs_.push_back(Run{serial, at, at});
  }
  msgs.push(std::move(m));
  ++runs_.back().end;
}

void Network::send_sharded(std::uint32_t shard, Vertex from, Message&& m) {
  OutLane& lane = out_lanes_[shard];
  if (from < lane.lo || from >= lane.hi) {
    throw std::logic_error("send_sharded: vertex " + std::to_string(from) +
                           " is not in shard " + std::to_string(shard));
  }
  const std::uint64_t bits = m.size_bits();
  metrics_.charge_bits_local(from, bits, shard);
  lane.bits += bits;
  lane.msgs.push(std::move(m));
}

void Network::run_sharded(const std::function<void(std::uint32_t)>& fn) {
  const std::uint32_t count = shards_.count();
  // Each task runs with its shard's arena bound as the thread's spill
  // target, so messages built inside the task (their out-of-line blocks
  // included) draw from the shard arena, not the heap.
  auto task = [this, &fn](std::uint32_t s) {
    ScopedArenaBind bind(arenas_[s].get());
    fn(s);
  };
  if (count <= 1 || worker_pool_ == nullptr) {
    for (std::uint32_t s = 0; s < count; ++s) task(s);
    return;
  }
  worker_pool_->for_each_helping(
      count, [&task](std::size_t s) { task(static_cast<std::uint32_t>(s)); });
}

// shardcheck:hot-path(runs every protocol phase; runs_ grows to a steady per-round count)
void Network::flush_shard_lanes() {
  // Ascending shard order + ascending vertex iteration inside each shard
  // task = merged stream in ascending global sender order, independent of
  // the shard count (see send_sharded).
  for (std::uint32_t s = 0; s < shards_.count(); ++s) {
    OutLane& lane = out_lanes_[s];
    const auto end = static_cast<std::uint32_t>(lane.msgs.size());
    if (end != lane.flushed) {
      runs_.push_back(Run{s, lane.flushed, end});
      metrics_.count_messages(end - lane.flushed);
      metrics_.add_total_bits(lane.bits);
      lane.flushed = end;
      lane.bits = 0;
    }
  }
  // Trace lanes merge at exactly the message-lane merge points, so the
  // trace stream inherits the same canonical (phase, shard, vertex) order
  // for every shard count.
  if (trace_ != nullptr) trace_->flush_lanes();
}

// shardcheck:hot-path(every round; the filing buffers keep their peak capacity)
void Network::deliver() {
  flush_shard_lanes();
  release_delivered();  // a second deliver() in one round replaces the first

  // Serial pass: resolve destinations in outbox order, count drops, account
  // the global bit total, and file surviving messages by destination shard.
  for (const Run& run : runs_) {
    const MessageLane& msgs = out_lanes_[run.lane].msgs;
    for (std::uint32_t i = run.first; i < run.end; ++i) {
      const Message& m = msgs[i];
      const std::optional<Vertex> v = find_vertex(m.dst);
      if (!v) {
        metrics_.count_dropped();
        continue;
      }
      const auto bits = static_cast<std::uint32_t>(m.size_bits());
      metrics_.add_total_bits(bits);
      inboxes_[shards_.shard_of(*v)].filed.push_back(Filed{&m, *v, bits});
    }
  }
  runs_.clear();
  // Hand the delivered buffers to dispatch: a swap moves no element, so the
  // filed pointers stay valid; the emptied buffers take the replies.
  for (OutLane& lane : out_lanes_) {
    lane.msgs.swap(lane.held);
    lane.flushed = 0;
  }

  std::uint32_t filed = 0;
  for (InboxShard& box : inboxes_) {
    box.base = filed;
    filed += static_cast<std::uint32_t>(box.filed.size());
  }
  if (filed != 0) {
    if (inbox_ptrs_.size() < filed) inbox_ptrs_.resize(filed);
    // Sharded pass: each destination shard counting-sorts its bucket (in
    // outbox order) into its slice of inbox_ptrs_, so every inbox keeps the
    // outbox order. Receiving also costs processing; charge the receiver
    // symmetrically so the per-node bound covers both directions.
    run_sharded([this](std::uint32_t s) {
      const InboxShard& box = inboxes_[s];
      if (box.filed.empty()) return;
      std::uint32_t* ends = inbox_ends_.data();
      std::fill(ends + shards_.begin(s), ends + shards_.end(s), 0u);
      for (const Filed& f : box.filed) ++ends[f.v];
      std::uint32_t at = box.base;
      for (Vertex v = shards_.begin(s); v < shards_.end(s); ++v) {
        const std::uint32_t count = ends[v];
        ends[v] = at;
        at += count;
      }
      for (const Filed& f : box.filed) {
        inbox_ptrs_[ends[f.v]++] = f.m;
        metrics_.charge_bits_local(f.v, f.bits, s);
      }
    });
  }
  metrics_.end_round();
}

}  // namespace churnstore
