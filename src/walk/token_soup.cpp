#include "walk/token_soup.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/prefetch.h"

namespace churnstore {

namespace {
/// Bits a node processes to forward one token: a 64-bit source id plus a
/// 16-bit hop counter, the paper's accounting (the engine packs both into
/// one 64-bit word, but the charge models the protocol, not the engine).
constexpr std::uint64_t kTokenBits = 64 + 16;
/// Scatter choice by destination page count, a pure function of n and the
/// walk config — never of the shard count, so every shards=S run of the
/// same workload takes the same path and stays bit-identical. With <=
/// kDirectMaxPages the bucket tails fit in a handful of lines and staging
/// is pure overhead; above it one WC table (2 lines + count per page,
/// ~130 B each) fronts the buckets. Measured with the former 3-line table,
/// not theoretical: WC with non-temporal flushes wins ~+20% at 64 pages
/// (n=16k), ties direct at ~1000 pages (n=1M), and beats a two-level run
/// demux at ~2300 pages, so there is no third path (EXPERIMENTS.md, M2).
constexpr std::uint32_t kDirectMaxPages = 4;
}  // namespace

// Queue capacity is whatever the arena's size class actually holds
// (Arena::usable_size), so the class round-up becomes extra tokens. The
// byte count handed back to deallocate lands in the same size class the
// allocation came from (cap * 8 > the previous class bound by
// construction), so the block recycles into its own freelist.
void TokenSoup::TokenQueue::grow(std::size_t min_cap) {
  std::size_t want = std::size_t{cap_} * 2;
  if (want < min_cap) want = min_cap;
  const std::size_t new_cap = Arena::usable_size(want * 8) / 8;
  auto* nw = static_cast<std::uint64_t*>(arena_->allocate(new_cap * 8));
  if (size_ > 0) std::memcpy(nw, words_, std::size_t{size_} * 8);
  arena_->deallocate(words_, std::size_t{cap_} * 8);
  words_ = nw;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

// Handoff capacity keeps the WC alignment contract: a multiple of 16
// tokens, so the dst column's byte offset (cap * 8) is a multiple of 64
// and both column bases are line-aligned. Growth copies whole old columns
// (cap_ elements, not size_): the WC front end stages committed lines PAST
// size_ and only publishes the count at wc_commit time, so everything up
// to the old capacity may be live. Copying the garbage tail is in-bounds
// and harmless.
void TokenSoup::HandoffBucket::grow(std::size_t min_cap) {
  std::size_t want = std::size_t{cap_} * 2;
  if (want < min_cap) want = min_cap;
  if (want < 16) want = 16;
  std::size_t new_cap;
  for (;;) {
    new_cap =
        (Arena::usable_size(want * kTokenBytes) / kTokenBytes) & ~std::size_t{15};
    if (new_cap >= min_cap) break;
    want += 16;
  }
  auto* nb = static_cast<std::byte*>(arena_->allocate(new_cap * kTokenBytes));
  if (cap_ > 0) {
    std::memcpy(nb, base_, std::size_t{cap_} * 8);
    std::memcpy(nb + new_cap * 8, dst(), std::size_t{cap_} * 4);
  }
  arena_->deallocate(base_, std::size_t{cap_} * kTokenBytes);
  base_ = nb;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

TokenSoup::TokenSoup(const WalkConfig& config) : config_(config) {}

TokenSoup::TokenSoup(Network& net, const WalkConfig& config)
    : TokenSoup(config) {
  on_attach(net);
}

void TokenSoup::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  const std::uint32_t n = net().n();
  stream_salt_ = net().protocol_rng().fork(0x736f7570ULL).next();
  walks_ = churnstore::walks_per_round(n, config_);
  length_ = churnstore::walk_length(n, config_);
  cap_ = churnstore::forward_cap(n, config_);
  tau_ = churnstore::tau_rounds(n, config_);
  // The keys checked here feed unsigned casts (walks_per_round, the sample
  // ring's slot count), so an out-of-range value must fail before it wraps
  // into a multi-GB reserve.
  const double ln_n = std::log(std::max<std::uint32_t>(n, 3));
  char msg[200];
  if (!(config_.t_mult >= 0) || length_ > kMaxSteps) {
    std::snprintf(msg, sizeof(msg),
                  "walk-t=%g sets a walk length of %.0f steps at n=%u; a "
                  "walk token's step field holds 1 to %u",
                  config_.t_mult, std::round(config_.t_mult * ln_n), n,
                  kMaxSteps);
    throw std::invalid_argument(msg);
  }
  if (!(config_.rate_mult >= 0) ||
      std::round(config_.rate_mult * ln_n) > kMaxWalksPerRound) {
    std::snprintf(msg, sizeof(msg),
                  "walk-rate=%g sets %.0f walks per node per round at n=%u; "
                  "a node starts 1 to %u walks a round (walk-rate 0 to %g "
                  "at this n)",
                  config_.rate_mult, std::round(config_.rate_mult * ln_n), n,
                  kMaxWalksPerRound, kMaxWalksPerRound / ln_n);
    throw std::invalid_argument(msg);
  }
  if (!(config_.window_mult >= 0) || config_.window_mult > kMaxWindowTaus) {
    std::snprintf(msg, sizeof(msg),
                  "walk-window=%g sets a sample window of %.0f rounds at "
                  "n=%u; the window holds 0 to %g tau (walk-window 0 to %g)",
                  config_.window_mult, config_.window_mult * tau_, n,
                  kMaxWindowTaus, kMaxWindowTaus);
    throw std::invalid_argument(msg);
  }
  const ShardPlan& plan = net().shards();
  const std::uint32_t shards = plan.count();
  // Token queues and handoff buckets are arena-backed: a queue draws from
  // the arena of the shard owning its vertex, a bucket from its SOURCE
  // shard's arena — always the task that grows it. Queues are pre-sized to
  // the steady load: without this, warm-up grows every queue through the
  // same doubling chain in lockstep, stranding each abandoned size class
  // in the freelists (~0.5 GB of dead blocks at n=1M). A vertex holds
  // about walks * length tokens in flight, a near-Poisson count, so the
  // reserve sits four standard deviations above it. A reserve at the mean
  // let a queue's peaks regrow it, leaving its first block idle on a
  // freelist but resident: that was +4% maxrss at n=4096.
  const double load = static_cast<double>(walks_) * length_;
  const auto queue_reserve =
      static_cast<std::size_t>(std::ceil(load + 4 * std::sqrt(load)));
  cur_.clear();
  cur_.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    Arena* a = &net().shard_arena(plan.shard_of(v));
    cur_.emplace_back(a);
    cur_.back().reserve(queue_reserve);
  }
  // Destination pages: the merge refill is a data-dependent scatter into
  // the token queues, and at n=1M those queues span hundreds of MB — a
  // shard-granular scatter pays DRAM latency per token. Size a power-of-
  // two vertex page so one page's queues (data + header + size-class
  // slack) stay inside ~1.5 MB of L2, stage handoffs per (src shard,
  // dst page), and let the merge walk page by page so every queue touch
  // lands in a cache-resident window.
  const std::uint64_t per_vertex_bytes =
      static_cast<std::uint64_t>(walks_) * length_ * sizeof(std::uint64_t) +
      64;
  constexpr std::uint64_t kMergeWindowBytes = 3u << 19;  // ~1.5 MB of L2
  page_shift_ = 0;
  while (page_shift_ < 16 &&
         (std::uint64_t{2} << page_shift_) * per_vertex_bytes <=
             kMergeWindowBytes) {
    ++page_shift_;
  }
  pages_ = n > 0 ? ((n - 1) >> page_shift_) + 1 : 1;
  // Sample arrivals stage per (src shard, dst page) like the handoffs, and
  // each dst shard's merge task files its own vertices' slot arrays.
  const Round window = static_cast<Round>(config_.window_mult * tau_) + 2;
  samples_.attach(plan, page_shift_, window, walks_);
  // Pre-size each (src, page) bucket to its share of the steady in-flight
  // population (walks * length per vertex, near-uniform walk targets).
  // Growth past the reserve still works, it just reallocates once; the
  // reserve exists so steady-state rounds never double a hundreds-of-MB
  // column (the old+new copy overlap was a maxrss spike at n=1M).
  moves_.clear();
  moves_.reserve(static_cast<std::size_t>(shards) * pages_);
  const std::uint64_t page_span = std::uint64_t{1} << page_shift_;
  for (std::uint32_t src = 0; src < shards; ++src) {
    const std::uint64_t src_span = plan.end(src) - plan.begin(src);
    for (std::uint32_t page = 0; page < pages_; ++page) {
      moves_.emplace_back(&net().shard_arena(src));
      if (n > 0) {
        const std::uint64_t expected = static_cast<std::uint64_t>(walks_) *
                                       length_ * src_span * page_span / n;
        moves_.back().reserve(expected + expected / 16 + 8);
      }
    }
  }
  probes_.clear();
  probes_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    probes_.emplace_back(ArenaAllocator<ProbeDone>(&net().shard_arena(s)));
  }
  counters_.assign(shards, {});
  fwd_count_.assign(n, 0);
  draws_.assign(shards, std::vector<std::uint32_t>(cap_));
  alive_.assign(shards, 0);
  // Scatter path: chosen from the page count alone (shard-independent, so
  // S-invariance cannot depend on it). The WC front ends point into moves_,
  // which never reallocates after attach.
  wc_scatter_ = pages_ > kDirectMaxPages;
  wc_.clear();
  if (wc_scatter_) {
    wc_.resize(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      wc_[s].attach(moves_.data() + static_cast<std::size_t>(s) * pages_,
                    pages_);
    }
  }
}

void TokenSoup::on_churn(Vertex v, PeerId, PeerId) {
  // The peer at v is gone: its queued tokens die with it. Its samples need
  // no clearing: samples(v) hides every round before the new peer's birth.
  net().metrics().count_tokens_lost(cur_[v].size());
  alive_[net().shards().shard_of(v)] -= cur_[v].size();
  cur_[v].clear();
}

void TokenSoup::inject_probe(Vertex v, std::uint64_t tag, std::uint32_t steps) {
  if (tag > kMaxPeerId) {
    throw std::invalid_argument("probe tag " + std::to_string(tag) +
                                " does not fit a walk token's 48-bit source "
                                "field");
  }
  if (steps < 1 || steps > kMaxSteps) {
    throw std::invalid_argument("probe of " + std::to_string(steps) +
                                " steps; a walk token's step field holds 1 "
                                "to " + std::to_string(kMaxSteps));
  }
  cur_[v].push_back(pack(tag, steps, /*probe=*/true));
  ++alive_[net().shards().shard_of(v)];
}

std::size_t TokenSoup::tokens_alive() const noexcept {
  std::size_t acc = 0;
  for (const std::uint64_t a : alive_) acc += a;
  return acc;
}

void TokenSoup::on_round_begin() {
  // Every vertex draws from its own stream, keyed by (attach-time salt,
  // round, vertex) — a pure function of the seed, so the walk trajectories
  // are independent of shard count and of which thread runs which shard.
  round_key_ = mix64(stream_salt_ ^ static_cast<std::uint64_t>(net().round()));
  samples_.begin_round();
}

// Phase 1 (parallel over source shards): spawn this round's fresh walks
// (paper: every node initiates alpha log n walks every round; spawned
// tokens join the back of the queue so older, possibly cap-delayed tokens
// go first), then forward up to cap_ tokens per vertex to uniform random
// current neighbors. Handoffs, completions, and probe finishes are staged
// per (source, destination) shard; nothing outside the shard's own
// vertices is mutated.
//
// Hot-loop shape: the whole per-vertex draw batch is generated up front
// (stream_fill_below — same stream, same draws as the former per-token
// next_below loop, so trajectories are bit-identical), the neighbor row
// base pointer and degree are hoisted, and the loop body reads the token
// words as one flat stream. A step is `word - 2`; the only branch that
// matters is the completion check (taken once per walk_length forwards).
// shardcheck:sharded-hook(phase-1 forward core; runs on shard s's task from on_round_begin(s))
template <class EmitMove, class EmitDone>
void TokenSoup::forward_range(std::uint32_t s, Vertex v0, Vertex v1,
                              EmitMove&& emit_move, EmitDone&& emit_done) {
  const RegularGraph& g = net().graph();
  const std::uint32_t d = g.degree();
  ShardCounters& counters = counters_[s];
  std::uint32_t* draws = draws_[s].data();
  for (Vertex v = v0; v < v1; ++v) {
    TokenQueue& q = cur_[v];
    if (v + 1 < v1) {
      // The next queue's block lives elsewhere in the arena; start its
      // head line early while this vertex's batch drains.
      prefetch_read(cur_[v + 1].words());
    }
    if (spawning_) {
      q.append_n(pack(net().peer_at(v), length_, /*probe=*/false), walks_);
    }
    const std::size_t size = q.size();
    const std::size_t fwd = std::min<std::size_t>(size, cap_);
    const std::uint64_t* words = q.words();
    if (fwd > 0) {
      stream_fill_below(round_key_, v, d, draws, fwd);
      const Vertex* row = g.row(v);
      for (std::size_t j = 0; j < fwd; ++j) {
        const std::uint64_t w = words[j] - 2;
        const Vertex u = row[draws[j]];
        if ((w & kStepMask) == 0) {  // steps_left hit zero: completes at u
          ++counters.completed;
          if (w & kProbeBit) {
            probes_[s].push_back(ProbeDone{w >> kSourceShift, u});
          } else {
            emit_done(w >> kSourceShift, u);
          }
        } else {
          emit_move(w, u);
        }
      }
    }
    if (fwd < size) {
      // Cap-delayed tokens stay at v: route them through v's own page
      // bucket so the merge interleaves them at v's canonical source
      // position (identical queue order for every shard count). Their
      // words are unstepped, so steps_left stays >= 1.
      counters.queued += size - fwd;
      for (std::size_t j = fwd; j < size; ++j) emit_move(words[j], v);
    }
    fwd_count_[v] = static_cast<std::uint32_t>(fwd);
    q.clear();
  }
}

void TokenSoup::on_round_begin(std::uint32_t s, ShardContext& ctx) {
  (void)ctx;  // tokens hand off through moves_/arrivals_, not messages
  const ShardPlan& plan = net().shards();
  const Vertex v0 = plan.begin(s);
  const Vertex v1 = plan.end(s);
  const std::uint32_t page_shift = page_shift_;
  const auto emit_done = [&](std::uint64_t src, Vertex u) {
    samples_.stage(s, u, src);
  };
  if (wc_scatter_) {
    auto& wc = wc_[s];
    forward_range(
        s, v0, v1,
        [&](std::uint64_t w, Vertex u) { wc.push(u >> page_shift, w, u); },
        emit_done);
    wc.flush_all();
  } else {
    HandoffBucket* mv = moves_.data() + static_cast<std::size_t>(s) * pages_;
    forward_range(
        s, v0, v1,
        [&](std::uint64_t w, Vertex u) { mv[u >> page_shift].push_back(w, u); },
        emit_done);
  }
}

// Phase 2 (parallel over destination shards): merge the staged handoffs
// and sample deliveries addressed to this shard, scanning pages in
// ascending order and, within a page, source shards in ascending order.
// Each bucket was appended in ascending source-vertex order, so every
// queue receives its tokens in ascending GLOBAL source order — the same
// stream the shard-keyed merge produced, bit-identical for every shard
// count, serial or parallel. The handoffs refill cur_ in place: phase 1
// cleared every queue, and a queue's vertex belongs to exactly this
// destination shard, so single-buffering is race-free. The shard's sample
// arrivals are then filed into this round's ring slot in the same order.
//
// Cache blocking: one page's queues fit in L2 by construction
// (page_shift_), so the data-dependent scatter never leaves a ~1.5 MB
// window. A page that straddles a shard boundary is scanned by BOTH
// neighboring shards, each filing only its own vertices — concurrent
// reads of the bucket are safe, and the serial epilogue does the
// clearing.
// shardcheck:sharded-hook(phase-2 refill; runs on the dst shard's task inside on_round_merge's run_sharded)
void TokenSoup::merge_shard(std::uint32_t dst, Round r) {
  const ShardPlan& plan = net().shards();
  const std::uint32_t shards = plan.count();
  const Vertex vbegin = plan.begin(dst);
  const Vertex vend = plan.end(dst);
  std::uint64_t alive = 0;
  const std::uint32_t p0 = vbegin >> page_shift_;
  const std::uint32_t p1 = (vend - 1) >> page_shift_;
  // Owned pages refill by counting sort: one histogram pass over the
  // bucket dst columns, one exact reserve per touched vertex, then a raw
  // cursor scatter. That trades a second sequential read of the bucket for
  // dropping the per-token queue-header load, capacity branch, and size
  // writeback — the cursor array is a few KB and stays in L1 while the
  // token words stream through the page's L2 window, one write stream per
  // queue. Order per queue is unchanged: buckets are visited src-shard-major
  // exactly as before, and each cursor advances in bucket scan order.
  const std::uint32_t span = std::uint32_t{1} << page_shift_;
  // Scratch draws from this shard's arena (alloc and free both happen on
  // this task): after the first round both pops come off the freelist, so
  // the refill stays heap-quiet instead of paying two mallocs per shard
  // per round.
  Arena* arena = &net().shard_arena(dst);
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> cnt(
      span, ArenaAllocator<std::uint32_t>(arena));
  std::vector<std::uint64_t*, ArenaAllocator<std::uint64_t*>> cursor(
      span, ArenaAllocator<std::uint64_t*>(arena));
  for (std::uint32_t p = p0; p <= p1; ++p) {
    const std::uint64_t pstart = std::uint64_t{p} << page_shift_;
    const std::uint64_t pend = std::uint64_t{p + 1} << page_shift_;
    // The last page over-extends past n; it is still wholly owned when
    // this shard's range runs to n.
    const bool owned = pstart >= vbegin && (pend <= vend || vend == plan.n());
    if (owned) {
      const std::uint32_t used = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(pend, plan.n()) - pstart);
      std::fill(cnt.begin(), cnt.begin() + used, 0u);
      for (std::uint32_t src = 0; src < shards; ++src) {
        const HandoffBucket& bucket =
            moves_[static_cast<std::size_t>(src) * pages_ + p];
        const Vertex* hdst = bucket.dst();
        const std::size_t m = bucket.size();
        for (std::size_t i = 0; i < m; ++i) {
          ++cnt[hdst[i] - static_cast<Vertex>(pstart)];
        }
        alive += m;
      }
      for (std::uint32_t lv = 0; lv < used; ++lv) {
        if (cnt[lv] == 0) continue;
        TokenQueue& q = cur_[static_cast<Vertex>(pstart) + lv];
        const std::uint32_t off = q.extend_for_refill(cnt[lv]);
        cursor[lv] = q.words() + off;  // after the extend: it may regrow

      }
      for (std::uint32_t src = 0; src < shards; ++src) {
        const HandoffBucket& bucket =
            moves_[static_cast<std::size_t>(src) * pages_ + p];
        const std::uint64_t* hwords = bucket.words();
        const Vertex* hdst = bucket.dst();
        const std::size_t m = bucket.size();
        for (std::size_t i = 0; i < m; ++i) {
          *cursor[hdst[i] - static_cast<Vertex>(pstart)]++ = hwords[i];
        }
      }
    } else {
      for (std::uint32_t src = 0; src < shards; ++src) {
        const HandoffBucket& bucket =
            moves_[static_cast<std::size_t>(src) * pages_ + p];
        const std::size_t m = bucket.size();
        const std::uint64_t* hwords = bucket.words();
        const Vertex* hdst = bucket.dst();
        for (std::size_t i = 0; i < m; ++i) {
          const Vertex w = hdst[i];
          if (w < vbegin || w >= vend) continue;
          cur_[w].push_back(hwords[i]);
          ++alive;
        }
      }
    }
  }
  // Phase 1 drained every queue, so the merged handoffs ARE this shard's
  // whole live population: settle the alive counter here instead of ever
  // scanning queues (tokens_alive() just sums these).
  alive_[dst] = alive;
  samples_.file(dst, r);
}

void TokenSoup::on_round_merge() {
  const Round r = net().round();
  const Vertex n = net().n();
  const std::uint32_t shards = net().shards().count();
  merge_round_ = r;
  net().run_sharded(merge_task_);
  samples_.end_round(r);

  // Serial epilogue. Buckets are cleared here, not in merge_shard: a page
  // that straddles a shard boundary is read by both neighboring shards'
  // merge tasks (clear() only resets the size, so no arena traffic from
  // serial context).
  for (HandoffBucket& bucket : moves_) bucket.clear();

  // User-facing probe hooks (canonical source order — the hook may touch
  // arbitrary shared state) and metrics.
  std::uint64_t completed = 0;
  std::uint64_t queued = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (const ProbeDone& p : probes_[s]) {
      if (probe_hook_) probe_hook_(p.tag, p.dst, r);
    }
    probes_[s].clear();
    completed += counters_[s].completed;
    queued += counters_[s].queued;
    counters_[s] = ShardCounters{};
  }
  for (Vertex v = 0; v < n; ++v) {
    if (fwd_count_[v] > 0) net().charge_processing(v, fwd_count_[v] * kTokenBits);
  }
  if (spawning_) {
    net().metrics().count_tokens_spawned(static_cast<std::uint64_t>(n) * walks_);
  }
  net().metrics().count_tokens_completed(completed);
  net().metrics().count_tokens_queued(queued);
}

}  // namespace churnstore
