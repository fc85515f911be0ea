// Per-shard slab allocator with size-class freelists.
//
// The sharded round engine allocates the same transient buffers every round
// — token queues, staged handoff buckets, message send lanes — and at
// n >= 100k the general-purpose allocator becomes a measurable cost (and a
// fragmentation source: ~50M live tokens at n=100k, ~150M at n=1M). An
// Arena carves fixed slabs into power-of-two blocks and recycles freed
// blocks through freelists, so after the first few rounds the steady state
// performs ZERO heap calls: every vector growth pops a recycled block.
//
// Concurrency contract: an Arena is NOT thread-safe. The engine keeps one
// Arena per shard (owned by Network) and the staging discipline guarantees
// each arena is only touched by its shard's task during a sharded phase —
// a vector allocated from shard s's arena must only grow/shrink from shard
// s's task (or from serial context between phases). ArenaAllocator makes a
// std::vector carry its arena along, so cur_.swap(next_) style buffer
// rotation keeps every buffer bound to the shard that owns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace churnstore {

class Arena {
 public:
  /// Blocks above the largest size class fall through to operator new.
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 20;
  /// Blocks >= one cache line come back line-aligned, so multi-column
  /// containers (SoA token buckets) can flush whole lines to column tails
  /// with non-temporal stores. Smaller blocks keep dense packing.
  static constexpr std::size_t kLineAlign = 64;
  /// Slabs and oversize blocks >= 2 MB are 2 MB-aligned and advised
  /// MADV_HUGEPAGE, so the multi-GB token working set at n=1M sits on a
  /// few hundred dTLB entries instead of hundreds of thousands.
  static constexpr std::size_t kHugeAlign = std::size_t{2} << 20;

  explicit Arena(std::size_t slab_bytes = std::size_t{1} << 20)
      : next_slab_bytes_(slab_bytes < kMaxBlock ? kMaxBlock : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { release(); }

  void* allocate(std::size_t bytes) {
    if (bytes > kMaxBlock) {
      bytes_in_use_ += bytes;
      if (bytes_in_use_ > high_water_) high_water_ = bytes_in_use_;
      ++oversize_live_;
      return os_alloc(bytes);
    }
    const std::size_t cls = size_class(bytes);
    const std::size_t block = class_block(cls);
    bytes_in_use_ += block;
    if (bytes_in_use_ > high_water_) high_water_ = bytes_in_use_;
    if (FreeNode* node = freelists_[cls]) {
      freelists_[cls] = node->next;
      ++reused_blocks_;
      return node;
    }
    ++fresh_blocks_;
    return bump(block);
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    if (p == nullptr) return;
    if (bytes > kMaxBlock) {
      bytes_in_use_ -= bytes;
      --oversize_live_;
      os_free(p, bytes);
      return;
    }
    const std::size_t cls = size_class(bytes);
    bytes_in_use_ -= class_block(cls);
    auto* node = static_cast<FreeNode*>(p);
    node->next = freelists_[cls];
    freelists_[cls] = node;
  }

  /// Usable bytes of the block allocate(bytes) actually returns (the size-
  /// class round-up; past kMaxBlock the request is exact). Multi-column
  /// containers that pack parallel arrays into one block use this to turn
  /// the rounding slack into extra capacity instead of waste.
  [[nodiscard]] static std::size_t usable_size(std::size_t bytes) noexcept {
    if (bytes > kMaxBlock) return bytes;
    return class_block(size_class(bytes));
  }

  /// Drop every slab and freelist. Only valid when no allocation is live.
  void release() noexcept {
    for (const Slab& s : slabs_) os_free(s.base, s.bytes);
    slabs_.clear();
    reserved_bytes_ = 0;
    for (FreeNode*& head : freelists_) head = nullptr;
    bump_at_ = bump_end_ = nullptr;
  }

  /// --- thread-bound spill target ----------------------------------------
  /// Message blocks (net/message.h) and SmallVec spills (util/small_vec.h)
  /// go to the arena bound to the current thread, so message building
  /// inside a shard task draws from that shard's arena without threading
  /// an allocator through every protocol signature. Network::run_sharded
  /// binds each task's shard arena for the task's duration
  /// (ScopedArenaBind below), serial protocol code binds the serial lane's
  /// arena, and unbound contexts (tests, examples) spill to the global heap.
  [[nodiscard]] static Arena* current() noexcept { return current_; }
  /// Installs `a` as the current thread's spill arena; returns the previous
  /// binding so scopes nest.
  static Arena* bind_current(Arena* a) noexcept {
    Arena* prev = current_;
    current_ = a;
    return prev;
  }

  /// --- stats (the arena unit test and the ledger binary read these) -----
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return reserved_bytes_;
  }
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return bytes_in_use_; }
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
  [[nodiscard]] std::uint64_t reused_blocks() const noexcept { return reused_blocks_; }
  [[nodiscard]] std::uint64_t fresh_blocks() const noexcept { return fresh_blocks_; }
  [[nodiscard]] std::size_t slab_count() const noexcept { return slabs_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  /// Size classes run 16, 24, 32, 48, 64, 96, ... — two per octave, so the
  /// worst-case rounding waste is 33% instead of the ~100% of pure powers
  /// of two. All blocks stay multiples of 8, preserving alignment.
  [[nodiscard]] static std::size_t class_block(std::size_t cls) noexcept {
    std::size_t block = kMinBlock << (cls / 2);
    if (cls % 2) block += block / 2;
    return block;
  }
  /// Index of the smallest class holding `bytes`.
  [[nodiscard]] static std::size_t size_class(std::size_t bytes) noexcept {
    std::size_t cls = 0;
    while (class_block(cls) < bytes) ++cls;
    return cls;
  }
  static constexpr std::size_t kClasses = 34;  // 16 B .. 1 MiB, 2 per octave

  /// Raw block source for slabs and oversize requests: cache-line aligned
  /// always, 2 MB-aligned + MADV_HUGEPAGE once the request is huge-page
  /// sized (a no-op hint off Linux or when THP is unavailable). Alignment
  /// is derived from `bytes` alone so os_free can pick the matching
  /// aligned-delete overload deterministically.
  [[nodiscard]] static std::byte* os_alloc(std::size_t bytes) {
    const std::size_t align = bytes >= kHugeAlign ? kHugeAlign : kLineAlign;
    auto* p = static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{align}));
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (bytes >= kHugeAlign) (void)madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return p;
  }
  static void os_free(void* p, std::size_t bytes) noexcept {
    const std::size_t align = bytes >= kHugeAlign ? kHugeAlign : kLineAlign;
    ::operator delete(p, std::align_val_t{align});
  }

  void* bump(std::size_t block) {
    std::size_t pad = 0;
    if (block >= kLineAlign && bump_at_ != nullptr) {
      const auto at = reinterpret_cast<std::uintptr_t>(bump_at_);
      pad = (kLineAlign - (at & (kLineAlign - 1))) & (kLineAlign - 1);
    }
    if (static_cast<std::size_t>(bump_end_ - bump_at_) < block + pad) {
      // Slabs grow geometrically (initial size .. 4 MB cap): arenas that
      // stay small reserve little, arenas holding the n=1M working set
      // reach huge-page-backed slabs within a few allocations. The cap is
      // deliberately modest — at 16 MB the tail-slab slack across S=16
      // arenas showed up as ~35 MB of maxrss at n=16k.
      const std::size_t slab_bytes = next_slab_bytes_;
      if (next_slab_bytes_ < kMaxSlabBytes) next_slab_bytes_ *= 2;
      slabs_.push_back(Slab{os_alloc(slab_bytes), slab_bytes});
      reserved_bytes_ += slab_bytes;
      bump_at_ = slabs_.back().base;  // os_alloc is >= line aligned
      bump_end_ = bump_at_ + slab_bytes;
      pad = 0;
    }
    void* p = bump_at_ + pad;
    bump_at_ += pad + block;
    return p;
  }

  struct Slab {
    std::byte* base;
    std::size_t bytes;
  };
  static constexpr std::size_t kMaxSlabBytes = std::size_t{4} << 20;

  std::size_t next_slab_bytes_;
  std::size_t reserved_bytes_ = 0;
  std::vector<Slab> slabs_;
  std::byte* bump_at_ = nullptr;
  std::byte* bump_end_ = nullptr;
  FreeNode* freelists_[kClasses] = {};

  std::size_t bytes_in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t reused_blocks_ = 0;
  std::uint64_t fresh_blocks_ = 0;
  std::size_t oversize_live_ = 0;

  inline static thread_local Arena* current_ = nullptr;
};

/// RAII binding of Arena::current() for the enclosing scope (exception-safe
/// restore; Network::run_sharded wraps every shard task in one).
class ScopedArenaBind {
 public:
  explicit ScopedArenaBind(Arena* a) noexcept
      : prev_(Arena::bind_current(a)) {}
  ~ScopedArenaBind() { Arena::bind_current(prev_); }
  ScopedArenaBind(const ScopedArenaBind&) = delete;
  ScopedArenaBind& operator=(const ScopedArenaBind&) = delete;

 private:
  Arena* prev_;
};

/// STL allocator adapter: std::vector<T, ArenaAllocator<T>> draws from (and
/// recycles into) the bound Arena. The arena pointer travels with the
/// container on copy/move/swap, so buffers stay bound to their owning shard
/// through the engine's buffer rotations.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) noexcept : arena_(o.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ == nullptr) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(arena_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p);
      return;
    }
    arena_->deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] friend bool operator==(const ArenaAllocator& a,
                                       const ArenaAllocator<U>& b) noexcept {
    return a.arena() == b.arena();
  }
  template <typename U>
  [[nodiscard]] friend bool operator!=(const ArenaAllocator& a,
                                       const ArenaAllocator<U>& b) noexcept {
    return a.arena() != b.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace churnstore
