// The soup's walk samples: one flat store for every vertex.
//
// When a walk completes its T steps at a node, the node records the walk's
// source id: by the Soup Theorem these sources are near-uniform samples of
// the network, and every protocol building block (committee creation,
// leader re-formation, landmark child selection, search inquiries) draws
// from them. Samples are grouped by arrival round because Algorithm 1
// counts and consumes "the random walks received in round r" specifically.
//
// Representation: a ring of window + 2 round slots. A slot holds one
// round's samples for every vertex: per-vertex uint32 end offsets, and per
// destination shard one flat PeerId array, in vertex order. Filing a round
// is a counting sort of the staged arrivals (count, prefix-sum, scatter),
// so a round costs no per-vertex allocation, no directory entry and no
// free. The arrays are sized at attach from the walk rate, so steady-state
// rounds stay off the heap. Retention is a bounds check (keep_from <= r <=
// last filed round), and a churned vertex's earlier samples are hidden by
// its birth round instead of being cleared.
//
// The arrays come from the global heap, not the shard arenas. Churn kills
// walks on the way (a third of them in the n=4096 ledger stacks), so part
// of an array sized from the walk rate is never written; the heap commits
// only the pages a round writes, while the arenas' huge-page slabs would
// make the whole capacity resident.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"
#include "util/sharding.h"
#include "util/small_vec.h"

namespace churnstore {

/// Non-owning view of one round's sources at one vertex.
using SampleView = std::span<const PeerId>;

/// Caller-provided storage for VertexSamples::recent_distinct. A tree
/// fanout fits inline, and so does a committee invite list (3 round(ln n)
/// sources) up to n ~ 14M; a longer request spills to the arena bound to
/// the calling shard task (util/small_vec.h), so no call allocates a fresh
/// vector.
using PeerList = SmallVec<PeerId, 48>;

class SampleStore;

/// By-value view of one vertex's visible samples: the rounds [lo, hi] that
/// are both retained and not older than the vertex's current peer. Valid
/// until the store files another round.
class VertexSamples {
 public:
  /// Sources of walks that completed exactly in round r (empty if none, or
  /// if r is outside the visible rounds), in canonical source order.
  [[nodiscard]] SampleView at(Round r) const noexcept;

  [[nodiscard]] std::size_t count_at(Round r) const noexcept {
    return at(r).size();
  }

  /// Replaces `out` with up to `k` distinct most-recent sources (newest
  /// rounds first), skipping ids in `exclude`. Pass k = 0 for "all
  /// distinct". Dedupes by a linear scan of the output and the exclusions:
  /// k is a tree fanout or a committee size, so no per-call hash set.
  void recent_distinct(std::size_t k, PeerList& out,
                       std::span<const PeerId> exclude = {}) const;

  [[nodiscard]] std::size_t total() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return total() == 0; }

 private:
  friend class SampleStore;
  VertexSamples(const SampleStore& store, Vertex v, Round lo,
                Round hi) noexcept;

  const SampleStore* store_;
  Vertex v_;
  std::uint32_t shard_;
  Vertex first_;  ///< first vertex of v's shard (its array starts there)
  Round lo_;
  Round hi_;
};

class SampleStore {
 public:
  SampleStore() = default;
  ~SampleStore() { release(); }
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  /// Size the ring for `window` rounds of retention past the newest filed
  /// round, with arrivals staged per (source shard, destination page of
  /// 2^page_shift vertices). Each slot's array for a shard is sized for
  /// `per_vertex` arrivals per vertex per round, plus slack. Serial context.
  void attach(const ShardPlan& plan, std::uint32_t page_shift, Round window,
              std::uint32_t per_vertex);

  /// Empty the staging buckets (serial, before the round's stage() calls).
  void begin_round() noexcept;

  /// Stage a completion observed by `src_shard`: the walk from `source`
  /// finished at vertex `dst`. Only `src_shard`'s task may call this.
  void stage(std::uint32_t src_shard, Vertex dst, PeerId source) {
    staged_[static_cast<std::size_t>(src_shard) * pages_ +
            (dst >> page_shift_)]
        .push_back(Arrival{dst, source});
  }

  /// File the staged arrivals addressed to `dst_shard`'s vertices as round
  /// r, into the ring slot that held round r - slots(). Counting sort over
  /// the shard's pages in canonical (page, source shard, staging) order,
  /// so every vertex's sources come out in ascending global source order
  /// for every shard count. A page straddling a shard boundary is read by
  /// both neighbouring shards, each filing only its own vertices. Only the
  /// dst shard's task may call this; the slot stays unpublished until
  /// end_round(r).
  void file(std::uint32_t dst_shard, Round r);

  /// Publish round r (serial, after every shard's file()): it becomes the
  /// newest visible round and r - window the oldest.
  void end_round(Round r) noexcept;

  /// Visible samples of vertex v, whose current peer joined in round `born`.
  [[nodiscard]] VertexSamples samples(Vertex v, Round born) const noexcept;

  [[nodiscard]] std::uint32_t slots() const noexcept { return slots_; }

 private:
  friend class VertexSamples;

  struct Arrival {
    Vertex dst;
    PeerId source;
  };
  /// One (slot, shard) array of sources, in vertex order.
  struct Block {
    PeerId* data = nullptr;
    std::uint32_t cap = 0;
  };

  [[nodiscard]] std::size_t slot_of(Round r) const noexcept {
    return static_cast<std::size_t>(r % slots_);
  }
  static void reserve(Block& b, std::uint32_t cap);
  void release() noexcept;

  ShardPlan plan_;
  std::uint32_t page_shift_ = 0;
  std::uint32_t pages_ = 1;
  std::uint32_t slots_ = 0;
  Round window_ = 0;
  Round last_ = -1;  ///< newest published round, -1 before the first
  std::vector<Round> slot_round_;   ///< round each slot holds, -1 if none
  std::vector<std::uint32_t> ends_;  ///< [slot * n + v]: v's end offset
  std::vector<Block> blocks_;        ///< [slot * shards + s]
  std::vector<std::vector<Arrival>> staged_;  ///< [src * pages_ + page]
};

}  // namespace churnstore
