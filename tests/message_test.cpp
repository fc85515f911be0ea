// Message: one 64-byte line holding src, type, dst, the word count and
// kInlineWords words; longer word lists and the extras (blob, payload bits,
// trace id) in one out-of-line block from the building context's arena.
// The charge is the paper's model whatever the storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/message.h"
#include "util/arena.h"

namespace churnstore {
namespace {

std::uint64_t header_bits() { return 3 * 64; }

TEST(MessageSizeBits, AccountingIsIdenticalForInlineAndSpilledStorage) {
  // The paper's charge model: header (src+dst+type) + 64 bits per word +
  // 8 per blob byte + opaque payload bits + 64 for a trace id — regardless
  // of where the words physically live.
  Message small;
  small.words = {1, 2, 3};
  EXPECT_FALSE(small.words.spilled());
  EXPECT_EQ(small.size_bits(), header_bits() + 3 * 64u);
  small.set_payload_bits(17);  // an extra moves the words out of the line
  EXPECT_TRUE(small.words.spilled());
  EXPECT_EQ(small.size_bits(), header_bits() + 3 * 64 + 17u);
  EXPECT_EQ(small.words.size(), 3u);
  EXPECT_EQ(small.words[2], 3u);

  Message big;
  for (std::uint64_t i = 0; i < 50; ++i) big.words.push_back(i);
  const std::vector<std::uint8_t> bytes(100, 0xAB);
  big.set_blob(bytes);
  EXPECT_TRUE(big.words.spilled());
  EXPECT_EQ(big.size_bits(), header_bits() + 50 * 64 + 100 * 8u);

  // Copies and moves never change the charge.
  const Message copy = big;
  EXPECT_EQ(copy.size_bits(), big.size_bits());
  const Message moved = std::move(big);
  EXPECT_EQ(moved.size_bits(), copy.size_bits());
}

TEST(MessageSizeBits, CommonProtocolShapesStayInline) {
  // Counts (5 words) are the longest message that stays in the line;
  // inquiries (2), accepts, probes and fetch requests fit with room to
  // spare. A 12-word re-formation invite spills.
  Message count;
  count.words = {1, 2, 3, 4, 5};
  EXPECT_FALSE(count.words.spilled());
  Message inquiry;
  inquiry.words = {42, 77};
  EXPECT_FALSE(inquiry.words.spilled());
  Message invite;
  invite.words = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_TRUE(invite.words.spilled());
}

TEST(Message, IsOneCacheLineAndTheTypeSharesSrcsWord) {
  static_assert(sizeof(Message) == 64 && alignof(Message) == 64);
  Message m;
  m.src = kMaxPeerId;
  m.type = MsgType::kChordStoreAck;
  m.dst = kMaxPeerId - 1;
  EXPECT_EQ(m.src, kMaxPeerId);
  EXPECT_EQ(m.type, MsgType::kChordStoreAck);
  EXPECT_EQ(m.dst, kMaxPeerId - 1);
  std::vector<Message> lane(3);
  for (const Message& slot : lane) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slot) % 64, 0u);
  }
}

TEST(Message, WordsPastTheLineKeepTheirOrderAcrossEveryGrowthPath) {
  Message m;
  for (std::uint64_t i = 0; i < kInlineWords; ++i) m.words.push_back(i);
  EXPECT_FALSE(m.words.spilled());
  m.words.push_back(kInlineWords);  // the first word past the line
  EXPECT_TRUE(m.words.spilled());
  const std::vector<std::uint64_t> tail = {100, 101, 102, 103, 104, 105, 106,
                                           107, 108, 109, 110, 111, 112};
  m.words.insert(m.words.end(), tail.begin(), tail.end());
  ASSERT_EQ(m.words.size(), kInlineWords + 1 + tail.size());
  for (std::uint64_t i = 0; i <= kInlineWords; ++i) EXPECT_EQ(m.words[i], i);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(m.words[kInlineWords + 1 + i], tail[i]);
  }
  // Range-for and assignment from another message's words (words only).
  Message fwd;
  fwd.set_trace_id(9);
  fwd.words = m.words;
  std::uint64_t sum = 0;
  for (const std::uint64_t w : fwd.words) sum += w;
  std::uint64_t want = 0;
  for (const std::uint64_t w : m.words) want += w;
  EXPECT_EQ(sum, want);
  EXPECT_EQ(fwd.trace_id(), 9u) << "assigning words must keep the extras";
  EXPECT_EQ(m.trace_id(), 0u);
}

TEST(Message, ExtrasSurviveWordGrowthCopiesAndMoves) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  Message m;
  m.words = {7};
  m.set_blob(bytes);
  m.set_payload_bits(1000);
  m.set_trace_id(0xabcULL);
  for (std::uint64_t i = 0; i < 40; ++i) m.words.push_back(i);  // regrows
  const std::uint64_t want =
      header_bits() + 41 * 64 + bytes.size() * 8 + 1000 + 64;
  EXPECT_EQ(m.size_bits(), want);

  const Message copy = m;
  Message moved = std::move(m);
  for (const Message* x :
       std::initializer_list<const Message*>{&copy, &moved}) {
    EXPECT_EQ(x->size_bits(), want);
    EXPECT_EQ(std::vector<std::uint8_t>(x->blob().begin(), x->blob().end()),
              bytes);
    EXPECT_EQ(x->payload_bits(), 1000u);
    EXPECT_EQ(x->trace_id(), 0xabcULL);
    EXPECT_EQ(x->words[0], 7u);
    EXPECT_EQ(x->words[40], 39u);
  }
  EXPECT_EQ(m.words.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(m.size_bits(), header_bits());

  // Clearing the extras drops their charge; a shorter blob replaces the
  // longer one.
  moved.set_trace_id(0);
  moved.set_payload_bits(0);
  const std::vector<std::uint8_t> two = {5, 6};
  moved.set_blob(two);
  EXPECT_EQ(moved.size_bits(), header_bits() + 41 * 64 + 16);
  moved.set_blob(moved.blob());  // copying its own blob onto itself
  EXPECT_EQ(moved.blob().size(), 2u);
  EXPECT_EQ(moved.blob()[1], 6u);
}

TEST(Message, BlocksComeFromTheBoundArenaAndGoBackOnDestruction) {
  Arena arena;
  {
    const ScopedArenaBind bind(&arena);
    // A 12-word invite's block is the 32-byte header plus its words: one
    // 128-byte size class, no rounding.
    Message invite;
    invite.words = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    EXPECT_EQ(arena.bytes_in_use(), 128u);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  {
    const ScopedArenaBind bind(&arena);
    Message m;
    for (std::uint64_t i = 0; i < 3 * kInlineWords; ++i) m.words.push_back(i);
    const std::vector<std::uint8_t> bytes(40, 3);
    m.set_blob(bytes);
    EXPECT_GT(arena.bytes_in_use(), 0u);
    const Message copy = m;
    EXPECT_GT(arena.bytes_in_use(), 0u);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(Message, ChargesPastThirtyTwoBitsAreRejected) {
  // The pipe files each message's charge in 32 bits; the extras that would
  // pass it throw instead of wrapping.
  Message m;
  EXPECT_THROW(m.set_payload_bits(std::uint64_t{1} << 40), std::length_error);
  EXPECT_EQ(m.size_bits(), header_bits());
  EXPECT_FALSE(m.words.spilled());
}

}  // namespace
}  // namespace churnstore
