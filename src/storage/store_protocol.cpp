#include "storage/store_protocol.h"

#include <cmath>

namespace churnstore {

StoreManager::StoreManager(CommitteeManager& committees,
                           LandmarkManager& landmarks,
                           const ProtocolConfig& config)
    : committees_(committees), landmarks_(landmarks), config_(config) {}

bool StoreManager::store(Vertex creator, ItemId item,
                         std::vector<std::uint8_t> payload) {
  ItemRecord rec;
  rec.id = item;
  rec.hash = content_hash(payload);
  rec.size_bytes = payload.size();
  rec.stored_round = net().round();
  rec.creator = net().peer_at(creator);
  if (!committees_.create(creator, /*kid=*/item, Purpose::kStorage, item,
                          kNoPeer, payload, /*expire=*/-1)) {
    return false;
  }
  records_[item] = rec;
  // Begin-only span: paper-stack stores have no acknowledgement to the
  // creator (the committee owns the item from here), so the trace marks
  // the request without a completion event.
  const std::uint64_t tid = mix64(item ^ 0x73746f7265ULL) | 1;  // "store"
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(tid)) {
    tc->record(make_trace_event(tid, rec.stored_round, creator, 0, 0,
                                RequestClass::kStore, TraceEv::kBegin));
  }
  return true;
}

const ItemRecord* StoreManager::record(ItemId item) const {
  const auto it = records_.find(item);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t StoreManager::copies_alive(ItemId item) const {
  return committees_.alive_members(item);
}

std::size_t StoreManager::landmarks_alive(ItemId item) const {
  return landmarks_.live_count(item);
}

bool StoreManager::is_recoverable(ItemId item) const {
  const std::size_t alive = copies_alive(item);
  if (alive == 0) return false;
  if (!config_.use_erasure_coding) return true;
  // Erasure mode: the last generation's member count determines the L in
  // play; K was fixed at store time from the protocol config.
  const ErasurePolicy policy(config_.ida_surplus);
  return alive >= policy.pieces_needed(committees_.target_size());
}

bool StoreManager::is_available(ItemId item) const {
  if (!is_recoverable(item)) return false;
  const double threshold = std::sqrt(static_cast<double>(net().n())) / 4.0;
  return static_cast<double>(landmarks_alive(item)) >= threshold;
}

}  // namespace churnstore
