// Small-vector with N inline slots spilling to a per-shard Arena.
//
// Per-call scratch lists on the round's hot paths (PeerList, the walk
// samples a landmark or committee draws) usually hold a handful of values.
// A SmallVec stores up to N elements inside the object itself — the common
// case performs ZERO allocator calls — and spills larger lists into the
// Arena bound to the current thread (Arena::current(): the shard arena
// inside a task of Network::run_sharded, the serial lane's arena where
// serial protocol code binds it), falling back to the global heap in
// unbound contexts. Wire messages do not use it: a Message packs its words
// and its out-of-line block into one 64-byte line (net/message.h), with the
// same spill rule.
//
// Ownership/concurrency contract (same staging discipline as util/arena.h):
// a spilled SmallVec remembers the arena its block came from and returns it
// there on growth/destruction. Growth and destruction must therefore happen
// either on the task that owns that arena or in serial context between
// phases.
//
// Only trivially copyable element types are supported: growth is memcpy,
// destruction frees the block without element teardown, and moved-from
// containers reset to the inline empty state.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <vector>

#include "util/arena.h"

namespace churnstore {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec supports trivially copyable elements only");
  static_assert(N * sizeof(T) >= 2 * sizeof(void*),
                "inline area must be able to hold the spill header");
  static_assert(N > 0 && N < 0x7fffffff);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept {}
  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  SmallVec(const SmallVec& o) { assign(o.data(), o.data() + o.size_); }
  SmallVec(SmallVec&& o) noexcept { steal(o); }
  ~SmallVec() { release(); }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(o.data(), o.data() + o.size_);
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  SmallVec& operator=(const std::vector<T>& v) {
    assign(v.data(), v.data() + v.size());
    return *this;
  }

  [[nodiscard]] T* data() noexcept { return spilled() ? spill_.data : inline_; }
  [[nodiscard]] const T* data() const noexcept {
    return spilled() ? spill_.data : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return cap_ > N; }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t want) {
    if (want > cap_) grow(want);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = v;
  }

  void assign(std::size_t n, const T& v) {
    if (n > cap_) {
      release();
      grow(n);
    }
    T* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = v;
    size_ = static_cast<std::uint32_t>(n);
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > cap_) {
      // Old contents are irrelevant; drop any spill before reallocating so
      // assign never copies twice.
      release();
      grow(n);
    }
    T* d = data();
    std::size_t i = 0;
    for (It it = first; it != last; ++it, ++i) d[i] = *it;
    size_ = static_cast<std::uint32_t>(n);
  }

  /// End-insertion only (the one form list builders use); keeps the
  /// growth path trivial. Forward iterators only: the range is measured
  /// first, then copied.
  template <std::forward_iterator It>
  void insert(const_iterator pos, It first, It last) {
    assert(pos == end() && "SmallVec supports end-insertion only");
    (void)pos;
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    reserve(size_ + n);
    T* d = data() + size_;
    for (It it = first; it != last; ++it, ++d) *d = *it;
    size_ += static_cast<std::uint32_t>(n);
  }

  [[nodiscard]] std::vector<T> to_vector() const {
    return std::vector<T>(begin(), end());
  }

  template <std::size_t M>
  [[nodiscard]] friend bool operator==(const SmallVec& a,
                                       const SmallVec<T, M>& b) noexcept {
    if (a.size() != b.size()) return false;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }

 private:
  struct Spill {
    T* data;
    Arena* arena;  ///< where `data` came from (nullptr = global heap)
  };

  static T* alloc(std::size_t n, Arena* a) {
    return static_cast<T*>(a != nullptr ? a->allocate(n * sizeof(T))
                                        : ::operator new(n * sizeof(T)));
  }
  static void dealloc(T* p, std::size_t n, Arena* a) noexcept {
    if (a != nullptr) {
      a->deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  /// Free any spill block and return to the inline empty state.
  void release() noexcept {
    if (spilled()) dealloc(spill_.data, cap_, spill_.arena);
    size_ = 0;
    cap_ = static_cast<std::uint32_t>(N);
  }

  void steal(SmallVec& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.spilled()) {
      spill_ = o.spill_;
    } else {
      // Constant-size copy of the whole inline area: the tail past size_ is
      // garbage either way, and the fixed length keeps the compiler's
      // bounds analysis (and the optimizer) happy.
      std::memcpy(inline_, o.inline_, N * sizeof(T));
    }
    o.size_ = 0;
    o.cap_ = static_cast<std::uint32_t>(N);
  }

  void grow(std::size_t min_cap) {
    std::size_t new_cap = 2 * static_cast<std::size_t>(cap_);
    if (new_cap < min_cap) new_cap = min_cap;
    Arena* a = Arena::current();
    T* nd = alloc(new_cap, a);
    std::memcpy(nd, data(), size_ * sizeof(T));
    if (spilled()) dealloc(spill_.data, cap_, spill_.arena);
    spill_.data = nd;
    spill_.arena = a;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  union {
    T inline_[N];
    /// Default-initialized variant member: a never-spilled SmallVec reads
    /// only size_/cap_, but zeroing the header keeps the compiler's
    /// uninitialized-use analysis (and destructor inlining) warning-free.
    Spill spill_ = {nullptr, nullptr};
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = static_cast<std::uint32_t>(N);
};

}  // namespace churnstore
