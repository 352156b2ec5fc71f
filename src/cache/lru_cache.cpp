#include "cache/lru_cache.hpp"

namespace idicn::cache {

LruCache::LruCache(std::uint64_t capacity, bool promote_on_hit)
    : capacity_(capacity), promote_on_hit_(promote_on_hit) {}

void LruCache::unlink(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = s.next = kNil;
}

void LruCache::link_front(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void LruCache::promote(std::uint32_t slot) noexcept {
  if (promote_on_hit_ && head_ != slot) {
    unlink(slot);
    link_front(slot);
  }
}

bool LruCache::lookup(ObjectId object) {
  const std::uint32_t slot = index_.find(object);
  if (slot == kNil) return false;
  promote(slot);
  return true;
}

bool LruCache::contains(ObjectId object) const { return index_.contains(object); }

void LruCache::evict_lru(std::vector<ObjectId>& evicted) {
  const std::uint32_t victim = tail_;
  Slot& s = slots_[victim];
  used_ -= s.size;
  evicted.push_back(s.object);
  index_.erase(s.object);
  unlink(victim);
  free_slots_.push_back(victim);
}

void LruCache::insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) {
  const std::uint32_t present = index_.find(object);
  if (present != kNil) {
    // Refresh recency; sizes are immutable per object in this model.
    promote(present);
    return;
  }
  if (size > capacity_) return;  // cannot ever fit

  while (used_ + size > capacity_) evict_lru(evicted);

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot] = Slot{object, size, kNil, kNil};
  link_front(slot);
  index_.insert(object, slot);
  used_ += size;
}

void LruCache::erase(ObjectId object) {
  const std::uint32_t slot = index_.erase(object);
  if (slot == kNil) return;
  used_ -= slots_[slot].size;
  unlink(slot);
  free_slots_.push_back(slot);
}

}  // namespace idicn::cache
