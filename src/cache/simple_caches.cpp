#include "cache/simple_caches.hpp"

#include <stdexcept>

#include "cache/lfu_cache.hpp"
#include "cache/lru_cache.hpp"

namespace idicn::cache {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Lru: return "LRU";
    case PolicyKind::Lfu: return "LFU";
    case PolicyKind::Fifo: return "FIFO";
    case PolicyKind::Random: return "RANDOM";
    case PolicyKind::Infinite: return "INFINITE";
  }
  return "UNKNOWN";
}

std::unique_ptr<Cache> make_cache(PolicyKind kind, std::uint64_t capacity,
                                  std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::Lru: return std::make_unique<LruCache>(capacity);
    case PolicyKind::Lfu: return std::make_unique<LfuCache>(capacity);
    case PolicyKind::Fifo:
      return std::make_unique<LruCache>(capacity, /*promote_on_hit=*/false);
    case PolicyKind::Random: return std::make_unique<RandomCache>(capacity, seed);
    case PolicyKind::Infinite: return std::make_unique<InfiniteCache>();
  }
  throw std::invalid_argument("make_cache: unknown policy");
}

// ---------------------------------------------------------------------------
// RandomCache
// ---------------------------------------------------------------------------

RandomCache::RandomCache(std::uint64_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

bool RandomCache::lookup(ObjectId object) { return contains(object); }

bool RandomCache::contains(ObjectId object) const { return index_.contains(object); }

void RandomCache::remove_at(std::uint32_t position) {
  index_.erase(members_[position].object);
  if (position + 1 != members_.size()) {
    members_[position] = members_.back();
    index_.update(members_[position].object, position);
  }
  members_.pop_back();
}

void RandomCache::insert(ObjectId object, std::uint64_t size,
                         std::vector<ObjectId>& evicted) {
  if (contains(object)) return;
  if (size > capacity_) return;
  while (used_ + size > capacity_) {
    std::uniform_int_distribution<std::size_t> pick(0, members_.size() - 1);
    const auto position = static_cast<std::uint32_t>(pick(rng_));
    used_ -= members_[position].size;
    evicted.push_back(members_[position].object);
    remove_at(position);
  }
  index_.insert(object, static_cast<std::uint32_t>(members_.size()));
  members_.push_back(Member{object, size});
  used_ += size;
}

void RandomCache::erase(ObjectId object) {
  const std::uint32_t position = index_.find(object);
  if (position == FlatIndex::kAbsent) return;
  used_ -= members_[position].size;
  remove_at(position);
}

void InfiniteCache::erase(ObjectId object) {
  const std::uint32_t position = objects_.erase(object);
  if (position == FlatIndex::kAbsent) return;
  used_ -= members_[position].size;
  if (position + 1 != members_.size()) {
    members_[position] = members_.back();
    objects_.update(members_[position].object, position);
  }
  members_.pop_back();
}

}  // namespace idicn::cache
