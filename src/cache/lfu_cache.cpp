#include "cache/lfu_cache.hpp"

namespace idicn::cache {

LfuCache::LfuCache(std::uint64_t capacity) : capacity_(capacity) {}

void LfuCache::touch(ObjectId object, Entry& entry) {
  order_.erase(OrderKey{entry.frequency, entry.age, object});
  entry.frequency += 1;
  entry.age = ++clock_;
  order_.insert(OrderKey{entry.frequency, entry.age, object});
}

bool LfuCache::lookup(ObjectId object) {
  const std::uint32_t position = index_.find(object);
  if (position == FlatIndex::kAbsent) return false;
  touch(object, entries_[position]);
  return true;
}

bool LfuCache::contains(ObjectId object) const { return index_.contains(object); }

void LfuCache::remove(ObjectId object) {
  const std::uint32_t position = index_.erase(object);
  const Entry& entry = entries_[position];
  order_.erase(OrderKey{entry.frequency, entry.age, object});
  used_ -= entry.size;
  if (position + 1 != entries_.size()) {
    entries_[position] = entries_.back();
    index_.update(entries_[position].object, position);
  }
  entries_.pop_back();
}

void LfuCache::evict_one(std::vector<ObjectId>& evicted) {
  const ObjectId object = std::get<2>(*order_.begin());
  evicted.push_back(object);
  remove(object);
}

void LfuCache::insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) {
  const std::uint32_t present = index_.find(object);
  if (present != FlatIndex::kAbsent) {
    touch(object, entries_[present]);
    return;
  }
  if (size > capacity_) return;
  while (used_ + size > capacity_) evict_one(evicted);
  Entry entry;
  entry.object = object;
  entry.frequency = 1;
  entry.age = ++clock_;
  entry.size = size;
  order_.insert(OrderKey{entry.frequency, entry.age, object});
  index_.insert(object, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(entry);
  used_ += size;
}

void LfuCache::erase(ObjectId object) {
  if (index_.contains(object)) remove(object);
}

}  // namespace idicn::cache
