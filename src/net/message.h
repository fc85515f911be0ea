// Wire messages. All non-walk protocol traffic in the paper is point-to-
// point by peer id (invitations, clique exchanges, landmark growth,
// inquiries, reports), so the Message is a typed word vector addressed to a
// PeerId; delivery fails silently when the target has been churned out.
//
// Size accounting: a message is charged header (src + dst + type) plus 64
// bits per payload word plus any opaque payload bits (used for data-item
// bytes, so the scalability measurements include item transfer costs).
//
// Queueing: serial protocol code queues through Network::send; shard tasks
// of the sharded round engine queue through Network::send_sharded (one
// lock-free lane per shard). A message is never copied after that: it stays
// in its lane until the round after it is dispatched, and the outbox order
// is a list of runs over the lanes — serial sends where they are made, each
// lane flush's shard lanes in ascending shard order. That keeps delivery
// order — and therefore every downstream protocol decision — independent of
// the shard count (see util/sharding.h for why contiguous shards make that
// hold, and net/network.h for the pipe).
#pragma once

#include <cstdint>

#include "net/types.h"
#include "util/small_vec.h"

namespace churnstore {

enum class MsgType : std::uint32_t {
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

/// Inline word capacity. Every fixed-layout message in the repo — committee
/// count/accept/alive/handover/dissolve, re-formation invites (12 words),
/// landmark grow headers, inquiries, probes, fetch requests — fits without
/// touching an allocator; only member/holder list tails spill, and those go
/// to the sending shard's arena (Arena::current()), not the global heap.
inline constexpr std::size_t kInlineWords = 12;
/// Inline blob capacity; real item payloads/IDA pieces spill to the arena.
inline constexpr std::size_t kInlineBlobBytes = 16;

struct Message {
  PeerId src = kNoPeer;
  PeerId dst = kNoPeer;
  MsgType type = MsgType::kNone;
  /// Protocol-defined scalar fields (ids, rounds, ranks, list payloads).
  SmallVec<std::uint64_t, kInlineWords> words;
  /// Data bytes carried by the message (item payloads, IDA pieces). Carried
  /// for real so end-to-end integrity is testable, and charged bit-exactly.
  SmallVec<std::uint8_t, kInlineBlobBytes> blob;
  /// Additional opaque bits charged but not materialized.
  std::uint64_t payload_bits = 0;
  /// Optional request-trace correlation id (obs/trace.h); 0 = untraced. A
  /// set id is charged as one extra header word below, so traced runs
  /// account their own overhead honestly while untraced messages cost
  /// exactly what they did before tracing existed.
  std::uint64_t trace_id = 0;

  [[nodiscard]] std::uint64_t size_bits() const noexcept {
    return 3 * 64 + 64 * static_cast<std::uint64_t>(words.size()) +
           8 * static_cast<std::uint64_t>(blob.size()) + payload_bits +
           (trace_id != 0 ? 64 : 0);
  }
};

}  // namespace churnstore
