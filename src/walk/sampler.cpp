#include "walk/sampler.h"

#include <algorithm>
#include <cassert>
#include <new>

namespace churnstore {

VertexSamples::VertexSamples(const SampleStore& store, Vertex v, Round lo,
                             Round hi) noexcept
    : store_(&store),
      v_(v),
      shard_(store.plan_.shard_of(v)),
      first_(store.plan_.begin(shard_)),
      lo_(lo),
      hi_(hi) {}

SampleView VertexSamples::at(Round r) const noexcept {
  if (r < lo_ || r > hi_ || r < 0) return SampleView{};
  const SampleStore& s = *store_;
  const std::size_t slot = s.slot_of(r);
  if (s.slot_round_[slot] != r) return SampleView{};  // a round never filed
  const std::uint32_t* ends = s.ends_.data() + slot * s.plan_.n();
  const std::uint32_t begin = v_ == first_ ? 0 : ends[v_ - 1];
  const PeerId* data = s.blocks_[slot * s.plan_.count() + shard_].data;
  return SampleView{data + begin, ends[v_] - begin};
}

void VertexSamples::recent_distinct(std::size_t k, PeerList& out,
                                    std::span<const PeerId> exclude) const {
  out.clear();
  for (Round r = hi_; r >= lo_; --r) {
    for (const PeerId p : at(r)) {
      if (std::find(out.begin(), out.end(), p) != out.end() ||
          std::find(exclude.begin(), exclude.end(), p) != exclude.end()) {
        continue;
      }
      out.push_back(p);
      if (k != 0 && out.size() >= k) return;
    }
  }
}

std::size_t VertexSamples::total() const noexcept {
  std::size_t acc = 0;
  for (Round r = hi_; r >= lo_; --r) acc += at(r).size();
  return acc;
}

void SampleStore::attach(const ShardPlan& plan, std::uint32_t page_shift,
                         Round window, std::uint32_t per_vertex) {
  release();
  plan_ = plan;
  page_shift_ = page_shift;
  pages_ = plan.n() > 0 ? ((plan.n() - 1) >> page_shift) + 1 : 1;
  window_ = window;
  // window + 1 retained rounds, and one retired slot that the next round
  // overwrites.
  slots_ = static_cast<std::uint32_t>(window) + 2;
  last_ = -1;
  slot_round_.assign(slots_, -1);
  ends_.assign(static_cast<std::size_t>(slots_) * plan.n(), 0);
  blocks_.assign(static_cast<std::size_t>(slots_) * plan.count(), Block{});
  // Steady state files about per_vertex arrivals per vertex per round, a
  // near-binomial count per shard: an eighth of slack is several standard
  // deviations even for a tiny shard, so the arrays never regrow once the
  // soup has warmed up.
  for (std::uint32_t slot = 0; slot < slots_; ++slot) {
    for (std::uint32_t s = 0; s < plan.count(); ++s) {
      const std::uint64_t expected =
          std::uint64_t{per_vertex} * (plan.end(s) - plan.begin(s));
      reserve(blocks_[static_cast<std::size_t>(slot) * plan.count() + s],
              static_cast<std::uint32_t>(expected + expected / 8 + 64));
    }
  }
  staged_.resize(static_cast<std::size_t>(plan.count()) * pages_);
  for (auto& b : staged_) b.clear();
}

void SampleStore::reserve(Block& b, std::uint32_t cap) {
  if (cap <= b.cap) return;
  ::operator delete(b.data);
  b.data = static_cast<PeerId*>(
      ::operator new(std::size_t{cap} * sizeof(PeerId)));
  b.cap = cap;
}

void SampleStore::release() noexcept {
  for (Block& b : blocks_) {
    ::operator delete(b.data);
    b = Block{};
  }
}

void SampleStore::begin_round() noexcept {
  for (auto& b : staged_) b.clear();
}

void SampleStore::file(std::uint32_t dst, Round r) {
  const Vertex vbegin = plan_.begin(dst);
  const Vertex vend = plan_.end(dst);
  if (vbegin == vend) return;
  const std::uint32_t span = vend - vbegin;
  const std::uint32_t shards = plan_.count();
  const std::uint32_t p0 = vbegin >> page_shift_;
  const std::uint32_t p1 = (vend - 1) >> page_shift_;
  const std::size_t slot = slot_of(r);
  // ends[v] counts v's arrivals, then holds v's start offset (exclusive
  // prefix sum), then serves as v's write cursor, which leaves it at v's
  // end offset. Page by page, so every touch stays in the page's window.
  std::uint32_t* ends = ends_.data() + slot * plan_.n();
  std::fill(ends + vbegin, ends + vend, 0u);
  for (std::uint32_t p = p0; p <= p1; ++p) {
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (const Arrival& a :
           staged_[static_cast<std::size_t>(src) * pages_ + p]) {
        if (a.dst - vbegin < span) ++ends[a.dst];
      }
    }
  }
  std::uint32_t total = 0;
  for (Vertex v = vbegin; v < vend; ++v) {
    const std::uint32_t c = ends[v];
    ends[v] = total;
    total += c;
  }
  Block& block = blocks_[slot * shards + dst];
  if (total > block.cap) reserve(block, total + total / 8);
  PeerId* out = block.data;
  for (std::uint32_t p = p0; p <= p1; ++p) {
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (const Arrival& a :
           staged_[static_cast<std::size_t>(src) * pages_ + p]) {
        if (a.dst - vbegin < span) out[ends[a.dst]++] = a.source;
      }
    }
  }
}

void SampleStore::end_round(Round r) noexcept {
  assert(r >= 0 && r > last_ && "rounds are filed in increasing order");
  slot_round_[slot_of(r)] = r;
  last_ = r;
}

VertexSamples SampleStore::samples(Vertex v, Round born) const noexcept {
  return VertexSamples(*this, v, std::max(born, last_ - window_), last_);
}

}  // namespace churnstore
