// LFU cache (least frequently used, LRU tie-break).
//
// §3 of the paper: "We also tried LFU, which yielded qualitatively similar
// results" — this policy backs that ablation (bench_ablation_policies).
// Eviction order is (frequency, last-use age), both ascending, maintained
// in an ordered set; operations are O(log n). Per-object state sits in a
// dense vector found through a FlatIndex (ObjectId → position).
#pragma once

#include <set>
#include <tuple>
#include <vector>

#include "cache/cache.hpp"
#include "cache/flat_index.hpp"

namespace idicn::cache {

class LfuCache final : public Cache {
public:
  explicit LfuCache(std::uint64_t capacity);

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  void insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return index_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  struct Entry {
    ObjectId object = 0;
    std::uint64_t frequency = 0;
    std::uint64_t age = 0;  // logical clock of last touch
    std::uint64_t size = 0;
  };
  using OrderKey = std::tuple<std::uint64_t, std::uint64_t, ObjectId>;

  void touch(ObjectId object, Entry& entry);
  void evict_one(std::vector<ObjectId>& evicted);
  /// Forget `object` (which must be present): its ordering key, its units
  /// and its entry, swap-erased from the dense vector.
  void remove(ObjectId object);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;  ///< dense; index_ maps object → position
  FlatIndex index_;
  std::set<OrderKey> order_;  // ascending (freq, age, object): begin() = victim
};

}  // namespace idicn::cache
