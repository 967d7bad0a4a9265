#include "roads/query_cache.h"

namespace roads::core {

void QueryResultCache::scope_to(std::uint64_t stamp) {
  if (stamp == stamp_) return;
  clear();
  stamp_ = stamp;
}

std::shared_ptr<const CachedReply> QueryResultCache::find(std::uint64_t key,
                                                          std::uint64_t stamp) {
  scope_to(stamp);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->reply;
}

std::size_t QueryResultCache::insert(std::uint64_t key, std::uint64_t stamp,
                                     std::shared_ptr<const CachedReply> reply) {
  if (max_entries_ == 0 || max_bytes_ == 0) return 0;
  scope_to(stamp);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->reply->bytes();
    it->second->reply = std::move(reply);
    bytes_ += it->second->reply->bytes();
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(reply)});
    bytes_ += lru_.front().reply->bytes();
    index_[key] = lru_.begin();
  }
  std::size_t evicted = 0;
  // Never evict the entry just inserted, even if it alone exceeds the
  // byte bound — an oversized reply is still worth one slot.
  while (lru_.size() > 1 &&
         (lru_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const auto& victim = lru_.back();
    bytes_ -= victim.reply->bytes();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

void QueryResultCache::clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace roads::core
