// Wire messages. All non-walk protocol traffic in the paper is point-to-
// point by peer id (invitations, clique exchanges, landmark growth,
// inquiries, reports), so the Message is a typed word vector addressed to a
// PeerId; delivery fails silently when the target has been churned out.
//
// Size accounting: a message is charged header (src + dst + type) plus 64
// bits per payload word plus any opaque payload bits (used for data-item
// bytes, so the scalability measurements include item transfer costs).
//
// Layout: one 64-byte, line-aligned record. The line holds src with the
// type in the same word (peer ids fit 48 bits, kMaxPeerId), dst, the word
// count, the charged bits of the out-of-line extras, and kInlineWords = 5
// payload words. Longer word lists, the blob, payload_bits and trace_id
// live in one out-of-line block drawn from the building context's arena
// (Arena::current(): the shard arena inside a shard task, the serial lane's
// arena in serial protocol code, the global heap only where nothing is
// bound). A message with such a block keeps all its words there, so the
// words are always one contiguous array. size_bits() reads the line alone.
//
// What stays inline: committee counts (5 words), accepts, candidate-alive,
// handover and dissolve notices, inquiries (2), probes and fetch requests.
// Member and holder lists (landmark grows, inquiry hits, reports,
// confirms), 12-word re-formation invites and anything carrying a blob,
// payload bits or a trace id spill. Counted over one traced run of each
// benchmark workload (seed 1), messages of at most 5 words are 83.7% of
// search-storm's traffic (76.6% are 2-word inquiries) and 67.9% of
// store-maintain's.
//
// Queueing: serial protocol code queues through Network::send; shard tasks
// of the sharded round engine queue through Network::send_sharded (one
// lock-free lane per shard). A message moves into its lane once and is never
// copied after that: it stays there until the round after it is dispatched,
// and the outbox order is a list of runs over the lanes — serial sends
// where they are made, each lane flush's shard lanes in ascending shard
// order. That keeps delivery order — and therefore every downstream protocol
// decision — independent of the shard count (see util/sharding.h for why
// contiguous shards make that hold, and net/network.h for the pipe).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>

#include "net/types.h"
#include "util/arena.h"

namespace churnstore {

enum class MsgType : std::uint8_t {
  kNone = 0,
  // Committee protocol (Algorithm 1).
  kCommitteeInvite,    ///< creator/candidate -> future member
  kCommitteeCount,     ///< member -> member: walk count of record round
  kCommitteeCandidateAlive,  ///< candidate -> all members: "my invites went out"
  kCommitteeAccept,    ///< invitee -> candidate
  kCommitteeConfirm,   ///< candidate -> accepted member: committee final
  kCommitteeHandover,  ///< candidate -> old members: successor confirmed, resign
  kCommitteeDissolve,  ///< outranked candidate -> its invitees
  // Landmark protocol (Algorithm 2).
  kLandmarkGrow,       ///< parent -> child: join tree, grow further
  // Storage / retrieval protocols (Algorithms 3 & 4).
  kInquiry,            ///< search landmark -> sampled node: "do you know I?"
  kInquiryHit,         ///< storage landmark/member -> search landmark
  kReport,             ///< search landmark -> search initiator
  kFetchRequest,       ///< initiator -> holder
  kFetchReply,         ///< holder -> initiator (carries item payload bits)
  // Baseline protocols.
  kFloodData,
  kProbe,
  kProbeHit,
  // Chord DHT on the Network layer (baseline/chord_net). Iterative
  // find_successor routing plus ring maintenance, all as charged messages.
  kChordLookup,          ///< initiator -> hop: route key ([key, token, want_data])
  kChordLookupReply,     ///< hop -> initiator: next hop, or holder + succ list
  kChordStabilize,       ///< node -> successor: "who is your predecessor?"
  kChordStabilizeReply,  ///< successor -> node: predecessor + successor list
  kChordNotify,          ///< node -> successor: "I might be your predecessor"
  kChordFetch,           ///< initiator -> holder: retrieve item payload
  kChordFetchReply,      ///< holder -> initiator: payload blob (or not-found)
  kChordTransfer,        ///< replica push / range handover (carries payload)
  kChordStoreAck,        ///< holder -> store initiator: copy placed
};

/// Payload words that live in the message's own cache line.
inline constexpr std::size_t kInlineWords = 5;

/// A message's payload words. Up to kInlineWords sit in the message's line;
/// past that, or once the message carries a blob, payload bits or a trace
/// id, all words move to the out-of-line block, which also holds those
/// extras. The block returns to the arena it came from when the message
/// dies, so a message must die on the task that built it or in serial
/// context (the round engine destroys delivered messages in
/// Network::begin_round).
class WordList {
 public:
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  WordList() noexcept {}
  /// A Message copies its words and extras together (Message's copy).
  WordList(const WordList&) = delete;
  WordList(WordList&& o) noexcept { steal(o); }
  ~WordList() { release(); }

  /// Copies `o`'s words only; this message keeps its own extras.
  WordList& operator=(const WordList& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  WordList& operator=(WordList&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  WordList& operator=(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  [[nodiscard]] std::uint64_t* data() noexcept {
    return spilled_ ? spill_->words() : inline_;
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return spilled_ ? spill_->words() : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True when the message has an out-of-line block.
  [[nodiscard]] bool spilled() const noexcept { return spilled_; }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept {
    return data()[i];
  }
  [[nodiscard]] const std::uint64_t& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  /// Room for `n` words in one block, so a builder that knows a list's
  /// final length allocates once instead of once per growth step.
  void reserve(std::size_t n) {
    if (n > capacity()) {
      free_block(rehome(n, spilled_ ? spill_->blob_size : 0));
    }
  }

  void push_back(std::uint64_t w) {
    if (size_ == capacity()) grow(size_ + 1);
    data()[size_] = w;
    ++size_;
  }

  void assign(std::size_t n, std::uint64_t w) {
    if (n > capacity()) grow(n);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = w;
    size_ = static_cast<std::uint32_t>(n);
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > capacity()) grow(n);
    std::uint64_t* d = data();
    for (It it = first; it != last; ++it) *d++ = *it;
    size_ = static_cast<std::uint32_t>(n);
  }

  /// End-insertion only (the one form wire-format builders use), from a
  /// range outside this list.
  template <std::forward_iterator It>
  void insert(const_iterator pos, It first, It last) {
    assert(pos == end() && "WordList supports end-insertion only");
    (void)pos;
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (size_ + n > capacity()) grow(size_ + n);
    std::uint64_t* d = data() + size_;
    for (It it = first; it != last; ++it) *d++ = *it;
    size_ += static_cast<std::uint32_t>(n);
  }

 private:
  friend struct Message;

  /// The out-of-line block: this 32-byte header, then word_cap words, then
  /// exactly blob_size blob bytes (a blob of another size moves the block).
  /// With a 32-byte header a 12-word list fills a 128-byte size class.
  struct Spill {
    Arena* arena;  ///< where the block came from (nullptr = global heap)
    std::uint64_t payload_bits;
    std::uint64_t trace_id;
    std::uint32_t word_cap;
    std::uint32_t blob_size;

    [[nodiscard]] std::uint64_t* words() noexcept {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
    [[nodiscard]] std::uint8_t* blob() noexcept {
      return reinterpret_cast<std::uint8_t*>(words() + word_cap);
    }
    [[nodiscard]] static std::size_t bytes(std::size_t word_cap,
                                           std::size_t blob_size) noexcept {
      return sizeof(Spill) + 8 * word_cap + blob_size;
    }
  };
  static_assert(sizeof(Spill) == 32);

  /// Bounds that keep a message's charge below 2^32 bits (the filed record
  /// in net/network.h carries it in 32 bits): 2^30 bits of words, 2^31 of
  /// extras.
  static constexpr std::size_t kMaxWords = std::size_t{1} << 24;
  static constexpr std::uint64_t kMaxExtraBits = std::uint64_t{1} << 31;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return spilled_ ? spill_->word_cap : kInlineWords;
  }
  void grow(std::size_t min_cap) {
    reserve(std::max(min_cap, 2 * capacity()));
  }
  /// Move everything to a fresh block (drawn from Arena::current()) with
  /// room for word_cap words and a blob of blob_size bytes, keeping the
  /// words and as much of the old blob as fits. Returns the previous block,
  /// not yet freed, so a caller may still copy out of it (nullptr when
  /// there was none).
  [[nodiscard]] Spill* rehome(std::size_t word_cap, std::size_t blob_size);
  static void free_block(Spill* s) noexcept;
  /// The charge of the extras, checked against kMaxExtraBits.
  [[nodiscard]] static std::uint32_t extra_bits(std::size_t blob_bytes,
                                                std::uint64_t payload_bits,
                                                std::uint64_t trace_id);
  void clone(const WordList& o);
  void steal(WordList& o) noexcept {
    size_ = o.size_;
    spilled_ = o.spilled_;
    extra_bits_ = o.extra_bits_;
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    o.size_ = 0;
    o.spilled_ = 0;
    o.extra_bits_ = 0;
  }
  void release() noexcept {
    if (spilled_) free_block(spill_);
    size_ = 0;
    spilled_ = 0;
    extra_bits_ = 0;
  }

  std::uint32_t size_ : 31 = 0;
  std::uint32_t spilled_ : 1 = 0;
  /// 8 per blob byte + payload_bits + 64 when traced (0 without a block).
  std::uint32_t extra_bits_ = 0;
  /// spilled_ says which member is live. spill_ starts null only so that
  /// GCC's uninitialized-use analysis sees a defined value on every path.
  union {
    std::uint64_t inline_[kInlineWords];
    Spill* spill_ = nullptr;
  };
};

struct alignas(64) Message {
  /// Peer ids stay within 48 bits (kMaxPeerId); the field takes the whole
  /// word beside the type so a move copies the word without a merge.
  PeerId src : 56 = kNoPeer;
  MsgType type : 8 = MsgType::kNone;
  PeerId dst = kNoPeer;
  /// Protocol-defined scalar fields (ids, rounds, ranks, list payloads).
  WordList words;

  Message() = default;
  Message(const Message& o) : src(o.src), type(o.type), dst(o.dst) {
    words.clone(o.words);
  }
  Message(Message&&) noexcept = default;
  Message& operator=(const Message&) = delete;
  Message& operator=(Message&&) noexcept = default;

  /// Data bytes carried by the message (item payloads, IDA pieces). Carried
  /// for real so end-to-end integrity is testable, and charged bit-exactly.
  [[nodiscard]] std::span<const std::uint8_t> blob() const noexcept {
    if (!words.spilled_) return {};
    return {words.spill_->blob(), words.spill_->blob_size};
  }
  /// Replace the blob with a copy of `bytes`.
  void set_blob(std::span<const std::uint8_t> bytes);

  /// Additional opaque bits charged but not materialized.
  [[nodiscard]] std::uint64_t payload_bits() const noexcept {
    return words.spilled_ ? words.spill_->payload_bits : 0;
  }
  void set_payload_bits(std::uint64_t bits);

  /// Optional request-trace correlation id (obs/trace.h); 0 = untraced. A
  /// set id is charged as one extra header word below, so traced runs
  /// account their own overhead honestly while untraced messages cost
  /// exactly what they did before tracing existed.
  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return words.spilled_ ? words.spill_->trace_id : 0;
  }
  void set_trace_id(std::uint64_t id);

  /// Always below 2^32 (WordList's bounds); read from the line alone.
  [[nodiscard]] std::uint64_t size_bits() const noexcept {
    return 3 * 64 + 64 * static_cast<std::uint64_t>(words.size_) +
           words.extra_bits_;
  }
};

static_assert(sizeof(WordList) == 48);
static_assert(sizeof(Message) == 64 && alignof(Message) == 64,
              "a Message is one cache line");

}  // namespace churnstore
