// util/wc_buffer.h — software write-combining for the radix scatter.
//
// The contract under test is byte-identity: per-bucket element order with
// WC buffering (full-line spills, partial-line epilogue, mid-stream
// growth) must equal direct push_back order over adversarial synthetic
// streams. This is what lets TokenSoup pick direct pushes or WC staging by
// page count without moving a single golden baseline.
#include "util/wc_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace churnstore {
namespace {

/// Minimal bucket satisfying the WC contract with the engine's column
/// layout (u64 token word at 0, u32 dst at cap*8 — one 64-byte-aligned
/// block, capacity a multiple of 16).
class TestBucket {
 public:
  TestBucket() = default;
  TestBucket(TestBucket&& o) noexcept
      : base_(o.base_), size_(o.size_), cap_(o.cap_) {
    o.base_ = nullptr;
    o.size_ = o.cap_ = 0;
  }
  TestBucket(const TestBucket&) = delete;
  TestBucket& operator=(const TestBucket&) = delete;
  ~TestBucket() { ::operator delete(base_, std::align_val_t{64}); }

  std::uint64_t* words() const noexcept {
    return reinterpret_cast<std::uint64_t*>(base_);
  }
  std::uint32_t* dst() const noexcept {
    return reinterpret_cast<std::uint32_t*>(base_ + std::size_t{cap_} * 8);
  }
  std::size_t size() const noexcept { return size_; }

  void push_back(std::uint64_t w, std::uint32_t d) {
    if (size_ == cap_) grow(size_ + 1);
    words()[size_] = w;
    dst()[size_] = d;
    ++size_;
  }
  void wc_reserve(std::uint32_t min_cap) {
    if (min_cap > cap_) grow(min_cap);
  }
  void wc_commit(std::uint32_t n) noexcept { size_ = n; }
  void clear() noexcept { size_ = 0; }

 private:
  void grow(std::uint32_t min_cap) {
    std::uint32_t new_cap = cap_ > 0 ? cap_ * 2 : 16;
    if (new_cap < min_cap) new_cap = min_cap;
    new_cap = (new_cap + 15u) & ~15u;
    auto* nb = static_cast<std::byte*>(
        ::operator new(std::size_t{new_cap} * 12, std::align_val_t{64}));
    if (cap_ > 0) {
      // Whole old columns, like the engine bucket: WC stages lines past
      // size_, so everything up to the old capacity may be live.
      std::memcpy(nb, base_, std::size_t{cap_} * 8);
      std::memcpy(nb + std::size_t{new_cap} * 8, dst(), std::size_t{cap_} * 4);
    }
    ::operator delete(base_, std::align_val_t{64});
    base_ = nb;
    cap_ = new_cap;
  }

  std::byte* base_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

struct Record {
  std::uint32_t bucket;
  std::uint64_t word;
  std::uint32_t dst;
};

/// Deterministic stream generator (no engine RNG: this test is about byte
/// order, not distributions). The mix covers the adversarial shapes:
/// all-to-one bursts, strict round-robin, skewed hot buckets, and runs
/// whose per-bucket totals land on and around the 8/16 line quanta.
std::vector<Record> adversarial_stream(std::uint32_t buckets,
                                       std::uint32_t count,
                                       std::uint64_t salt) {
  std::vector<Record> out;
  out.reserve(count);
  std::uint64_t x = salt * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint64_t r = next();
    const std::uint32_t shape = static_cast<std::uint32_t>(r % 4);
    // Burst lengths straddle the line quanta on purpose (1..40 covers
    // partial, exactly-full, and full-plus-partial lines).
    const std::uint32_t burst = 1 + static_cast<std::uint32_t>((r >> 8) % 40);
    const std::uint32_t hot = static_cast<std::uint32_t>((r >> 16) % buckets);
    for (std::uint32_t j = 0; j < burst && i < count; ++j, ++i) {
      std::uint32_t b = 0;
      switch (shape) {
        case 0: b = hot; break;                       // all-to-one burst
        case 1: b = i % buckets; break;               // round-robin
        case 2: b = (hot + (j & 1)) % buckets; break; // two-bucket ping-pong
        default:                                      // skewed random
          b = static_cast<std::uint32_t>(next() % buckets);
          if (b % 3 != 0) b = hot;  // 2/3 of draws collapse onto hot
          break;
      }
      out.push_back(Record{b, next(), static_cast<std::uint32_t>(next())});
    }
  }
  return out;
}

void expect_buckets_identical(const std::vector<TestBucket>& got,
                              const std::vector<TestBucket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].size(), want[b].size()) << "bucket " << b;
    const std::size_t m = got[b].size();
    if (m == 0) continue;  // empty buckets may have no block at all
    EXPECT_EQ(std::memcmp(got[b].words(), want[b].words(), m * 8), 0)
        << "word column diverged in bucket " << b;
    EXPECT_EQ(std::memcmp(got[b].dst(), want[b].dst(), m * 4), 0)
        << "dst column diverged in bucket " << b;
  }
}

void run_identity(std::uint32_t buckets, std::uint32_t count,
                  std::uint64_t salt) {
  const std::vector<Record> stream = adversarial_stream(buckets, count, salt);
  std::vector<TestBucket> direct(buckets);
  std::vector<TestBucket> wc(buckets);
  WcScatter<TestBucket> scatter;
  scatter.attach(wc.data(), buckets);
  for (const Record& r : stream) {
    direct[r.bucket].push_back(r.word, r.dst);
    scatter.push(r.bucket, r.word, r.dst);
  }
  scatter.flush_all();
  expect_buckets_identical(wc, direct);
}

TEST(WcScatter, ByteIdenticalToDirectPushesOverAdversarialStreams) {
  for (std::uint64_t salt = 1; salt <= 8; ++salt) {
    run_identity(/*buckets=*/37, /*count=*/20000, salt);
  }
}

TEST(WcScatter, PartialLinesAndEpilogueFlushEveryResidue) {
  // One bucket per target count: every count from 0 to 48 (each residue of
  // the 8-word and 16-dst line quanta, with zero, one and two full lines
  // ahead of the tail), plus a few longer runs. Each epilogue shape (no
  // tail, word-only tail, dst-only tail, both) is hit.
  std::vector<std::uint32_t> counts;
  for (std::uint32_t c = 0; c <= 48; ++c) counts.push_back(c);
  for (const std::uint32_t c : {63u, 64u, 65u, 100u}) counts.push_back(c);
  const auto buckets = static_cast<std::uint32_t>(counts.size());
  std::vector<TestBucket> direct(buckets);
  std::vector<TestBucket> wc(buckets);
  WcScatter<TestBucket> scatter;
  scatter.attach(wc.data(), buckets);
  std::uint64_t v = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    for (std::uint32_t i = 0; i < counts[b]; ++i, ++v) {
      // Words span all 64 bits, as packed tokens do (source in the top 48).
      const std::uint64_t word = (v << 16 | v * 7) ^ (v << 47);
      direct[b].push_back(word, static_cast<std::uint32_t>(v * 3));
      scatter.push(b, word, static_cast<std::uint32_t>(v * 3));
    }
  }
  for (std::uint32_t b = 0; b < buckets; ++b) {
    EXPECT_EQ(wc[b].size(), 0u) << "size published before flush_all";
    EXPECT_EQ(scatter.pending(b), counts[b]);
  }
  scatter.flush_all();
  for (std::uint32_t b = 0; b < buckets; ++b) {
    EXPECT_EQ(scatter.pending(b), 0u);
  }
  expect_buckets_identical(wc, direct);
}

TEST(WcScatter, ReusableAcrossPhasesAfterClear) {
  // The engine pattern: flush_all ends a phase, buckets are cleared, the
  // same scatter (and the same bucket capacity) serves the next phase.
  const std::uint32_t buckets = 5;
  std::vector<TestBucket> direct(buckets);
  std::vector<TestBucket> wc(buckets);
  WcScatter<TestBucket> scatter;
  scatter.attach(wc.data(), buckets);
  for (int phase = 0; phase < 3; ++phase) {
    for (auto& b : direct) b.clear();
    for (auto& b : wc) b.clear();
    const auto stream =
        adversarial_stream(buckets, 997 + 31 * phase, 100 + phase);
    for (const Record& r : stream) {
      direct[r.bucket].push_back(r.word, r.dst);
      scatter.push(r.bucket, r.word, r.dst);
    }
    scatter.flush_all();
    expect_buckets_identical(wc, direct);
  }
}

TEST(WcScatter, GrowthUnderStagingKeepsCommittedLines) {
  // Force many mid-stream growths of a single hot bucket: committed lines
  // written past size_ must survive wc_reserve's reallocation.
  TestBucket direct;
  std::vector<TestBucket> wc(1);
  WcScatter<TestBucket> scatter;
  scatter.attach(wc.data(), 1);
  for (std::uint64_t v = 0; v < 5000; ++v) {
    direct.push_back(v << 16 | v, static_cast<std::uint32_t>(v ^ 0xabcd));
    scatter.push(0, v << 16 | v, static_cast<std::uint32_t>(v ^ 0xabcd));
  }
  scatter.flush_all();
  ASSERT_EQ(wc[0].size(), direct.size());
  EXPECT_EQ(std::memcmp(wc[0].words(), direct.words(), direct.size() * 8), 0);
  EXPECT_EQ(std::memcmp(wc[0].dst(), direct.dst(), direct.size() * 4), 0);
}

}  // namespace
}  // namespace churnstore
