// One shard's landmark state: a (vertex, kid) index over block-allocated
// entries, and the committee member lists the entries point to.
//
// Index. Linear probing over a power-of-two array of 8-byte slots, each
// holding the low 32 bits of the key hash (its home position, and a tag
// that rejects almost every mismatch without touching an entry) and a
// reference to the entry. Deletion shifts the rest of the probe run back,
// so there are no tombstones; the load stays at most 1/2.
//
// Entries. Fixed-size blocks of POD entries that never move, recycled
// through a free list: a lookup returns a stable pointer, and creating a
// landmark costs no heap block.
//
// Member lists. Every landmark of one tree carries its committee's list,
// so a list is stored once per (kid, wave) and the entries hold spans into
// it. Lists live in a ring of wave slots, each a run of chunks; a slot is
// recycled for a new wave only once every entry pointing into it has
// expired (the owner sizes the ring so that this always holds, and the
// table checks it).
//
// Blocks, index and chunks are drawn from the owning shard's arena, and
// only that shard's tasks (or serial context) may call the mutators.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "committee/committee.h"
#include "graph/graph.h"
#include "net/types.h"
#include "util/arena.h"

namespace churnstore {

struct LandmarkState {
  std::uint64_t kid = 0;
  ItemId item = 0;
  PeerId search_root = kNoPeer;
  Round expiry = 0;
  std::uint64_t wave = 0;          ///< rebuild wave id (creation round)
  /// The members this landmark points to: a list its shard's table stores
  /// once per (kid, wave). Valid while the landmark is live.
  std::span<const PeerId> committee;
  std::uint32_t pending_depth = 0; ///< levels still to grow below this node
  Purpose purpose = Purpose::kStorage;
};

/// Per-shard table; aligned so concurrently written shard headers never
/// share a cache line.
class alignas(64) LandmarkTable {
 public:
  struct Entry {
    LandmarkState st;
    Vertex v = 0;          ///< key half (the free list chains through it)
    bool indexed = false;  ///< v is listed in the owner's kid index
  };

  LandmarkTable() = default;
  ~LandmarkTable() { release(); }
  LandmarkTable(const LandmarkTable&) = delete;
  LandmarkTable& operator=(const LandmarkTable&) = delete;

  /// Bind to `arena` with a ring of `wave_slots` member-list slots. Drops
  /// any previous contents.
  void attach(Arena& arena, std::uint32_t wave_slots);

  /// The entry for (v, kid), or nullptr.
  [[nodiscard]] Entry* find(Vertex v, std::uint64_t kid) const noexcept;

  /// A fresh entry for (v, kid), which must be absent: key set, every
  /// other field at its default.
  Entry& add(Vertex v, std::uint64_t kid);

  /// The stored copy of `ids` as kid's list in `wave`: an identical list
  /// already stored for (kid, wave) is shared, else the ids are copied.
  /// `now` is the current round and `expiry` the last round an entry
  /// holding the span stays live.
  std::span<const PeerId> intern(std::uint64_t kid, std::uint64_t wave,
                                 std::span<const PeerId> ids, Round now,
                                 Round expiry);

  /// Erase every entry with expiry < now.
  void sweep(Round now) noexcept;

  /// Entries held (live, hidden or expired but not yet swept).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Entries the blocks can hold without drawing another block.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return entry_blocks_.size() * kBlockEntries;
  }
  /// Member ids the ring currently stores.
  [[nodiscard]] std::size_t stored_ids() const noexcept;

 private:
  struct Slot {
    std::uint32_t hash = 0;  ///< low bits of the key hash
    std::uint32_t ref = 0;   ///< 1 + entry number; 0 = empty
  };
  /// Entry numbers are (block << kBlockShift) | offset.
  static constexpr std::uint32_t kBlockShift = 12;
  static constexpr std::size_t kBlockBytes = std::size_t{256} << 10;
  static constexpr std::uint32_t kBlockEntries =
      static_cast<std::uint32_t>(kBlockBytes / sizeof(Entry));
  static_assert(kBlockEntries <= (1u << kBlockShift));
  static constexpr std::size_t kMinSlots = 1024;
  static constexpr std::uint32_t kChunkIds = 512;

  struct List {
    std::uint64_t kid;
    const PeerId* ids;
    std::uint32_t size;
    std::uint32_t older;  ///< 1 + index of kid's previous list, 0 = none
  };
  struct Chunk {
    PeerId* ids;
    std::uint32_t cap;
  };
  /// One wave's lists: `heads` maps a kid (open addressing) to 1 + the
  /// index of its newest list, which chains to the older ones.
  struct Wave {
    explicit Wave(Arena* a)
        : lists(ArenaAllocator<List>(a)),
          heads(ArenaAllocator<std::uint32_t>(a)),
          chunks(ArenaAllocator<Chunk>(a)) {}
    std::uint64_t wave = ~std::uint64_t{0};
    Round last_expiry = -1;  ///< latest expiry of an entry pointing here
    std::vector<List, ArenaAllocator<List>> lists;
    std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> heads;
    std::vector<Chunk, ArenaAllocator<Chunk>> chunks;
    std::uint32_t kids = 0;  ///< distinct kids in `heads`
    std::uint32_t used = 0;  ///< ids filled in chunks.back()
  };

  [[nodiscard]] Entry* entry(std::uint32_t ref) const noexcept {
    const std::uint32_t num = ref - 1;
    const std::uint32_t offset = num & ((1u << kBlockShift) - 1);
    return entry_blocks_[num >> kBlockShift] + offset;
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slot_count_ - 1; }
  std::uint32_t take_entry();
  void place(Slot s) noexcept;
  void grow_index();
  void erase_at(std::size_t i) noexcept;
  void reset(Wave& w, std::uint64_t wave);
  PeerId* store_ids(Wave& w, std::span<const PeerId> ids);

  template <typename T>
  T* alloc(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T)));
  }
  template <typename T>
  void dealloc(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }
  void release() noexcept;

  Arena* arena_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t slot_count_ = 0;
  std::size_t size_ = 0;
  std::vector<Entry*, ArenaAllocator<Entry*>> entry_blocks_;
  std::uint32_t bump_ = kBlockEntries;  ///< next unused offset, last block
  std::uint32_t free_ = 0;              ///< first free entry's ref, 0 = none
  std::vector<Wave, ArenaAllocator<Wave>> waves_;
};

}  // namespace churnstore
