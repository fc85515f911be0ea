#include "landmark/landmark_table.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "util/rng.h"

namespace churnstore {

namespace {
constexpr std::size_t kMinHeads = 16;

[[nodiscard]] std::uint32_t key_hash(Vertex v, std::uint64_t kid) noexcept {
  return static_cast<std::uint32_t>(
      mix64(kid ^ (std::uint64_t{v} * 0x9E3779B97F4A7C15ULL)));
}
}  // namespace

void LandmarkTable::attach(Arena& arena, std::uint32_t wave_slots) {
  release();
  arena_ = &arena;
  entry_blocks_ = decltype(entry_blocks_)(ArenaAllocator<Entry*>(arena_));
  waves_ = decltype(waves_)(ArenaAllocator<Wave>(arena_));
  waves_.reserve(wave_slots);
  for (std::uint32_t i = 0; i < wave_slots; ++i) waves_.emplace_back(arena_);
  slot_count_ = kMinSlots;
  slots_ = alloc<Slot>(slot_count_);
  std::fill_n(slots_, slot_count_, Slot{});
}

void LandmarkTable::release() noexcept {
  if (arena_ == nullptr) return;  // never attached
  for (Wave& w : waves_) {
    for (const Chunk& c : w.chunks) dealloc(c.ids, c.cap);
  }
  waves_.clear();
  for (Entry* b : entry_blocks_) dealloc(b, kBlockEntries);
  entry_blocks_.clear();
  dealloc(slots_, slot_count_);
  slots_ = nullptr;
  slot_count_ = 0;
  size_ = 0;
  bump_ = kBlockEntries;
  free_ = 0;
}

LandmarkTable::Entry* LandmarkTable::find(Vertex v,
                                          std::uint64_t kid) const noexcept {
  const std::uint32_t h = key_hash(v, kid);
  for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
    const Slot s = slots_[i];
    if (s.ref == 0) return nullptr;
    if (s.hash == h) {
      Entry* e = entry(s.ref);
      if (e->v == v && e->st.kid == kid) return e;
    }
  }
}

// shardcheck:hot-path(landmark recruitment in the dispatch hook; blocks and index arrays come from the shard arena)
LandmarkTable::Entry& LandmarkTable::add(Vertex v, std::uint64_t kid) {
  if (2 * (size_ + 1) > slot_count_) grow_index();
  const std::uint32_t ref = take_entry();
  Entry* e = std::construct_at(entry(ref));
  e->v = v;
  e->st.kid = kid;
  place(Slot{key_hash(v, kid), ref});
  ++size_;
  return *e;
}

// shardcheck:hot-path(entry allocation in the dispatch hook: the free list first, then the last block, then a fresh arena block)
std::uint32_t LandmarkTable::take_entry() {
  if (free_ != 0) {
    const std::uint32_t ref = free_;
    free_ = entry(ref)->v;
    return ref;
  }
  if (bump_ == kBlockEntries) {
    entry_blocks_.push_back(alloc<Entry>(kBlockEntries));
    bump_ = 0;
  }
  const auto block = static_cast<std::uint32_t>(entry_blocks_.size() - 1);
  return ((block << kBlockShift) | bump_++) + 1;
}

void LandmarkTable::place(Slot s) noexcept {
  std::size_t i = s.hash & mask();
  while (slots_[i].ref != 0) i = (i + 1) & mask();
  slots_[i] = s;
}

void LandmarkTable::grow_index() {
  Slot* old = slots_;
  const std::size_t old_count = slot_count_;
  slot_count_ *= 2;
  slots_ = alloc<Slot>(slot_count_);
  std::fill_n(slots_, slot_count_, Slot{});
  for (std::size_t i = 0; i < old_count; ++i) {
    if (old[i].ref != 0) place(old[i]);
  }
  dealloc(old, old_count);
}

void LandmarkTable::erase_at(std::size_t i) noexcept {
  // Backward shift: a later slot of the probe run moves into the hole
  // unless its home lies cyclically in (hole, j].
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask(); slots_[j].ref != 0;
       j = (j + 1) & mask()) {
    const std::size_t home = slots_[j].hash & mask();
    if (((j - home) & mask()) >= ((j - hole) & mask())) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void LandmarkTable::sweep(Round now) noexcept {
  if (size_ == 0) return;
  // Start just past an empty slot: an erase then only pulls slots from
  // later in the same probe run, which the loop has not visited yet.
  std::size_t start = 0;
  while (slots_[start].ref != 0) ++start;
  for (std::size_t k = 1; k <= slot_count_; ++k) {
    const std::size_t i = (start + k) & mask();
    while (slots_[i].ref != 0) {
      const std::uint32_t ref = slots_[i].ref;
      Entry* e = entry(ref);
      if (e->st.expiry >= now) break;
      e->v = free_;
      free_ = ref;
      erase_at(i);
      --size_;
    }
  }
}

// shardcheck:hot-path(member-list interning in the dispatch hook; list directories and chunks come from the shard arena)
std::span<const PeerId> LandmarkTable::intern(std::uint64_t kid,
                                              std::uint64_t wave,
                                              std::span<const PeerId> ids,
                                              Round now, Round expiry) {
  if (ids.empty()) return {};
  Wave& w = waves_[wave % waves_.size()];
  if (w.wave != wave) {
    if (w.last_expiry >= now) {
      throw std::logic_error(
          "landmark wave ring too short: a slot is still referenced");
    }
    reset(w, wave);
  }
  w.last_expiry = std::max(w.last_expiry, expiry);
  const std::size_t hmask = w.heads.size() - 1;
  std::size_t i = mix64(kid) & hmask;
  while (w.heads[i] != 0 && w.lists[w.heads[i] - 1].kid != kid) {
    i = (i + 1) & hmask;
  }
  for (std::uint32_t at = w.heads[i]; at != 0; at = w.lists[at - 1].older) {
    const List& l = w.lists[at - 1];
    if (std::equal(ids.begin(), ids.end(), l.ids, l.ids + l.size)) {
      return {l.ids, l.size};
    }
  }
  // Not stored yet: copy it in as kid's newest list.
  if (w.heads[i] == 0) ++w.kids;
  const PeerId* stored = store_ids(w, ids);
  w.lists.push_back(List{kid, stored, static_cast<std::uint32_t>(ids.size()),
                         w.heads[i]});
  w.heads[i] = static_cast<std::uint32_t>(w.lists.size());
  if (2 * w.kids > w.heads.size()) {
    // Rehash: ascending list order leaves every kid at its newest list.
    w.heads.assign(2 * w.heads.size(), 0);
    const std::size_t m = w.heads.size() - 1;
    for (std::uint32_t at = 1; at <= w.lists.size(); ++at) {
      const std::uint64_t k = w.lists[at - 1].kid;
      std::size_t j = mix64(k) & m;
      while (w.heads[j] != 0 && w.lists[w.heads[j] - 1].kid != k) {
        j = (j + 1) & m;
      }
      w.heads[j] = at;
    }
  }
  return {stored, ids.size()};
}

// shardcheck:hot-path(wave-slot recycling in the dispatch hook; chunks return to the shard arena)
void LandmarkTable::reset(Wave& w, std::uint64_t wave) {
  for (const Chunk& c : w.chunks) dealloc(c.ids, c.cap);
  w.chunks.clear();
  w.lists.clear();
  if (w.heads.empty()) w.heads.resize(kMinHeads);
  std::fill(w.heads.begin(), w.heads.end(), 0u);
  w.wave = wave;
  w.last_expiry = -1;
  w.kids = 0;
  w.used = 0;
}

// shardcheck:hot-path(member-list copy in the dispatch hook; chunks come from the shard arena)
PeerId* LandmarkTable::store_ids(Wave& w, std::span<const PeerId> ids) {
  const auto k = static_cast<std::uint32_t>(ids.size());
  if (w.chunks.empty() || w.chunks.back().cap - w.used < k) {
    const std::uint32_t cap = std::max(kChunkIds, k);
    w.chunks.push_back(Chunk{alloc<PeerId>(cap), cap});
    w.used = 0;
  }
  PeerId* out = w.chunks.back().ids + w.used;
  std::copy(ids.begin(), ids.end(), out);
  w.used += k;
  return out;
}

std::size_t LandmarkTable::stored_ids() const noexcept {
  std::size_t total = 0;
  for (const Wave& w : waves_) {
    for (const List& l : w.lists) total += l.size;
  }
  return total;
}

}  // namespace churnstore
