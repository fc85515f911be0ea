#include "net/message.h"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace churnstore {

WordList::Spill* WordList::rehome(std::size_t word_cap,
                                  std::size_t blob_size) {
  if (word_cap > kMaxWords || blob_size > kMaxExtraBits / 8) {
    throw std::length_error("message too large: at most 2^24 words and "
                            "2^28 blob bytes");
  }
  const std::size_t bytes = Spill::bytes(word_cap, blob_size);
  Arena* a = Arena::current();
  void* raw = a != nullptr ? a->allocate(bytes) : ::operator new(bytes);
  auto* s = new (raw) Spill{a, 0, 0, static_cast<std::uint32_t>(word_cap),
                            static_cast<std::uint32_t>(blob_size)};
  std::memcpy(s->words(), data(), std::size_t{size_} * 8);
  Spill* old = spilled_ ? spill_ : nullptr;
  if (old != nullptr) {
    s->payload_bits = old->payload_bits;
    s->trace_id = old->trace_id;
    std::memcpy(s->blob(), old->blob(),
                std::min(old->blob_size, s->blob_size));
  }
  spill_ = s;
  spilled_ = 1;
  return old;
}

void WordList::free_block(Spill* s) noexcept {
  if (s == nullptr) return;
  if (s->arena != nullptr) {
    s->arena->deallocate(s, Spill::bytes(s->word_cap, s->blob_size));
  } else {
    ::operator delete(s);
  }
}

std::uint32_t WordList::extra_bits(std::size_t blob_bytes,
                                   std::uint64_t payload_bits,
                                   std::uint64_t trace_id) {
  if (payload_bits > kMaxExtraBits || blob_bytes > kMaxExtraBits / 8 ||
      8 * blob_bytes + payload_bits + (trace_id != 0 ? 64 : 0) >
          kMaxExtraBits) {
    throw std::length_error("message too large: blob and payload bits must "
                            "stay within 2^31 bits");
  }
  return static_cast<std::uint32_t>(8 * blob_bytes + payload_bits +
                                    (trace_id != 0 ? 64 : 0));
}

void WordList::clone(const WordList& o) {
  // Called on an empty inline list.
  if (!o.spilled_) {
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    size_ = o.size_;
    return;
  }
  const Spill& from = *o.spill_;
  free_block(rehome(std::max<std::size_t>(o.size_, kInlineWords),
                    from.blob_size));
  std::memcpy(spill_->words(), o.spill_->words(), std::size_t{o.size_} * 8);
  std::memcpy(spill_->blob(), o.spill_->blob(), from.blob_size);
  spill_->payload_bits = from.payload_bits;
  spill_->trace_id = from.trace_id;
  size_ = o.size_;
  extra_bits_ = o.extra_bits_;
}

void Message::set_blob(std::span<const std::uint8_t> bytes) {
  const std::uint32_t extra =
      WordList::extra_bits(bytes.size(), payload_bits(), trace_id());
  if (bytes.empty() && !words.spilled_) return;
  WordList::Spill* old = nullptr;
  if (!words.spilled_ || words.spill_->blob_size != bytes.size()) {
    old = words.rehome(words.capacity(), bytes.size());
  }
  // `bytes` may point into the old block: copy before freeing it.
  if (!bytes.empty()) {
    std::memmove(words.spill_->blob(), bytes.data(), bytes.size());
  }
  words.extra_bits_ = extra;
  WordList::free_block(old);
}

void Message::set_payload_bits(std::uint64_t bits) {
  const std::uint32_t extra =
      WordList::extra_bits(blob().size(), bits, trace_id());
  if (bits == payload_bits()) return;
  if (!words.spilled_) WordList::free_block(words.rehome(words.capacity(), 0));
  words.spill_->payload_bits = bits;
  words.extra_bits_ = extra;
}

void Message::set_trace_id(std::uint64_t id) {
  const std::uint32_t extra =
      WordList::extra_bits(blob().size(), payload_bits(), id);
  if (id == trace_id()) return;
  if (!words.spilled_) WordList::free_block(words.rehome(words.capacity(), 0));
  words.spill_->trace_id = id;
  words.extra_bits_ = extra;
}

}  // namespace churnstore
