#include "core/kv_store.h"

namespace churnstore {

ItemId KvStore::key_to_item(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h | 1;  // keep ids nonzero
}

bool KvStore::put(Vertex creator, std::string_view key,
                  std::vector<std::uint8_t> value) {
  const std::string k(key);
  if (key_index_.count(k)) return false;
  const ItemId item = key_to_item(key);
  if (!sys_.store_item(creator, item, std::move(value))) return false;
  key_index_.emplace(k, item);
  return true;
}

std::uint64_t KvStore::get(Vertex initiator, std::string_view key) {
  return sys_.search(initiator, key_to_item(key));
}

std::optional<KvStore::GetResult> KvStore::result(std::uint64_t handle) const {
  const SearchStatus* st = sys_.search_status(handle);
  if (!st) return std::nullopt;
  GetResult r;
  r.complete = st->finished;
  r.found = st->fetch_ok;
  if (st->fetch_ok) {
    r.value = st->fetched_data;
    r.rounds_taken = st->fetched - st->start;
  }
  return r;
}

bool KvStore::contains(std::string_view key) const {
  const auto it = key_index_.find(std::string(key));
  if (it == key_index_.end()) return false;
  return sys_.searches().is_recoverable(it->second);
}

}  // namespace churnstore
