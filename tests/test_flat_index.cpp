// FlatIndex (the cache policies' open-addressing ObjectId → value table)
// and the LRU/FIFO list built on it, checked differentially: FlatIndex
// against std::unordered_map, including backward-shift deletes whose probe
// run wraps past the end of the table, and LruCache against a std::list +
// std::unordered_map reference over seeded random operation sequences.
#include <gtest/gtest.h>

#include <list>
#include <random>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/flat_index.hpp"

namespace {

using namespace idicn::cache;

// --- FlatIndex --------------------------------------------------------------

void expect_same(const FlatIndex& index,
                 const std::unordered_map<ObjectId, std::uint32_t>& reference,
                 const std::vector<ObjectId>& keys) {
  ASSERT_EQ(index.size(), reference.size());
  for (const ObjectId key : keys) {
    const auto it = reference.find(key);
    EXPECT_EQ(index.find(key), it == reference.end() ? FlatIndex::kAbsent : it->second)
        << "key " << key;
  }
}

TEST(FlatIndex, EmptyIndexFindsNothing) {
  FlatIndex index;
  EXPECT_EQ(index.find(0), FlatIndex::kAbsent);
  EXPECT_EQ(index.find(0xffffffffu), FlatIndex::kAbsent);
  EXPECT_EQ(index.erase(7), FlatIndex::kAbsent);
  EXPECT_EQ(index.size(), 0u);
}

TEST(FlatIndex, InsertFindUpdateErase) {
  FlatIndex index;
  index.insert(0xffffffffu, 3);  // every key is valid, even the all-ones id
  index.insert(0, 4);
  EXPECT_EQ(index.find(0xffffffffu), 3u);
  EXPECT_EQ(index.find(0), 4u);
  index.update(0, 9);
  EXPECT_EQ(index.find(0), 9u);
  EXPECT_EQ(index.erase(0xffffffffu), 3u);
  EXPECT_EQ(index.find(0xffffffffu), FlatIndex::kAbsent);
  EXPECT_EQ(index.erase(0xffffffffu), FlatIndex::kAbsent);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndex, GrowsByDoublingAndKeepsEveryKey) {
  FlatIndex index;
  std::unordered_map<ObjectId, std::uint32_t> reference;
  std::vector<ObjectId> keys;
  std::mt19937_64 rng(3);
  std::size_t last_buckets = 0;
  int doublings = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const auto key = static_cast<ObjectId>(rng());
    if (reference.contains(key)) continue;
    index.insert(key, i);
    reference.emplace(key, i);
    keys.push_back(key);
    if (index.bucket_count() != last_buckets) {
      if (last_buckets != 0) {
        EXPECT_EQ(index.bucket_count(), last_buckets * 2);
        ++doublings;
      }
      last_buckets = index.bucket_count();
    }
    EXPECT_LE(index.size() * 4, index.bucket_count() * 3);  // load <= 3/4
  }
  EXPECT_GE(doublings, 8);
  expect_same(index, reference, keys);
}

/// Keys whose probe runs start in the last two buckets or the first one of
/// a 16-bucket table, so every run crosses the end of the table.
std::vector<ObjectId> keys_homed_at_table_end(const FlatIndex& index, std::size_t count) {
  std::vector<ObjectId> keys;
  const std::size_t last = index.bucket_count() - 1;
  for (ObjectId key = 0; keys.size() < count; ++key) {
    const std::size_t home = index.home_bucket(key);
    if (home == last || home == last - 1 || home == 0) keys.push_back(key);
  }
  return keys;
}

TEST(FlatIndex, BackwardShiftDeleteAcrossTableEnd) {
  FlatIndex index;
  index.insert(123456, 0);  // sizes the table (16 buckets), then leave it empty
  ASSERT_EQ(index.erase(123456), 0u);
  ASSERT_EQ(index.bucket_count(), 16u);

  // Three keys homed in the last bucket occupy buckets 15, 0 and 1; two
  // homed in bucket 0 land behind them. Deleting the head of the run must
  // shift the wrapped members back across the end, never strand them.
  std::vector<ObjectId> at_last;
  std::vector<ObjectId> at_zero;
  for (ObjectId key = 0; at_last.size() < 3 || at_zero.size() < 2; ++key) {
    const std::size_t home = index.home_bucket(key);
    if (home == 15 && at_last.size() < 3) at_last.push_back(key);
    if (home == 0 && at_zero.size() < 2) at_zero.push_back(key);
  }
  std::unordered_map<ObjectId, std::uint32_t> reference;
  std::vector<ObjectId> keys;
  std::uint32_t value = 0;
  for (const ObjectId key : {at_last[0], at_last[1], at_last[2], at_zero[0], at_zero[1]}) {
    index.insert(key, value);
    reference.emplace(key, value++);
    keys.push_back(key);
  }
  for (const ObjectId victim : {at_last[0], at_zero[0], at_last[2], at_last[1]}) {
    EXPECT_EQ(index.erase(victim), reference.at(victim));
    reference.erase(victim);
    expect_same(index, reference, keys);
  }
}

TEST(FlatIndex, RandomChurnAtTableEndMatchesUnorderedMap) {
  FlatIndex index;
  index.insert(123456, 0);
  ASSERT_EQ(index.erase(123456), 0u);
  const std::vector<ObjectId> pool = keys_homed_at_table_end(index, 24);
  std::unordered_map<ObjectId, std::uint32_t> reference;
  std::mt19937_64 rng(17);
  for (std::uint32_t step = 0; step < 20'000; ++step) {
    const ObjectId key = pool[rng() % pool.size()];
    if (reference.contains(key)) {
      EXPECT_EQ(index.erase(key), reference.at(key));
      reference.erase(key);
    } else if (reference.size() < 12) {  // stay at 16 buckets
      index.insert(key, step);
      reference.emplace(key, step);
    }
    ASSERT_EQ(index.bucket_count(), 16u);
    expect_same(index, reference, pool);
  }
}

// --- LruCache / FIFO against a std::list reference --------------------------

/// The textbook LRU: a std::list in recency order (front = most recent)
/// and a std::unordered_map from object to list position. With
/// `promote = false` hits leave the order alone (FIFO).
class ListReference {
public:
  ListReference(std::uint64_t capacity, bool promote)
      : capacity_(capacity), promote_(promote) {}

  bool lookup(ObjectId object) {
    const auto it = where_.find(object);
    if (it == where_.end()) return false;
    if (promote_) order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void insert(ObjectId object, std::uint64_t size, std::vector<ObjectId>& evicted) {
    if (lookup(object)) return;
    if (size > capacity_) return;
    while (used_ + size > capacity_) {
      const auto& [victim, victim_size] = order_.back();
      used_ -= victim_size;
      evicted.push_back(victim);
      where_.erase(victim);
      order_.pop_back();
    }
    order_.emplace_front(object, size);
    where_[object] = order_.begin();
    used_ += size;
  }

  void erase(ObjectId object) {
    const auto it = where_.find(object);
    if (it == where_.end()) return;
    used_ -= it->second->second;
    order_.erase(it->second);
    where_.erase(it);
  }

  [[nodiscard]] std::size_t object_count() const { return where_.size(); }
  [[nodiscard]] std::uint64_t used_units() const { return used_; }

private:
  using Order = std::list<std::pair<ObjectId, std::uint64_t>>;
  std::uint64_t capacity_;
  bool promote_;
  std::uint64_t used_ = 0;
  Order order_;
  std::unordered_map<ObjectId, Order::iterator> where_;
};

struct DifferentialCase {
  PolicyKind kind;
  std::uint64_t capacity;
  ObjectId id_range;
  std::uint64_t max_size;
  std::uint64_t seed;
};

void run_differential(const DifferentialCase& c) {
  auto cache = make_cache(c.kind, c.capacity);
  ListReference reference(c.capacity, c.kind == PolicyKind::Lru);
  std::mt19937_64 rng(c.seed);
  std::vector<ObjectId> evicted;
  std::vector<ObjectId> evicted_reference;
  std::size_t evictions = 0;
  for (int step = 0; step < 60'000; ++step) {
    // Sparse ids (a multiplicative scatter of a small range) so the index
    // hashes real spread-out keys, not only 0..n.
    const auto object = static_cast<ObjectId>((rng() % c.id_range) * 2654435761u);
    const auto op = rng() % 10;
    if (op < 5) {
      const std::uint64_t size = 1 + rng() % c.max_size;
      evicted.clear();
      evicted_reference.clear();
      cache->insert(object, size, evicted);
      reference.insert(object, size, evicted_reference);
      ASSERT_EQ(evicted, evicted_reference) << "step " << step;
      evictions += evicted.size();
    } else if (op < 8) {
      ASSERT_EQ(cache->lookup(object), reference.lookup(object)) << "step " << step;
    } else {
      cache->erase(object);
      reference.erase(object);
    }
    ASSERT_EQ(cache->used_units(), reference.used_units()) << "step " << step;
    ASSERT_EQ(cache->object_count(), reference.object_count()) << "step " << step;
  }
  EXPECT_GT(evictions, 0u);
}

TEST(LruCacheDifferential, MatchesListReferenceUnitSizes) {
  run_differential({PolicyKind::Lru, 300, 1000, 1, 1});
  run_differential({PolicyKind::Lru, 7, 20, 1, 2});
}

TEST(LruCacheDifferential, MatchesListReferenceSizedObjects) {
  run_differential({PolicyKind::Lru, 500, 2000, 9, 3});
  run_differential({PolicyKind::Lru, 40, 200, 50, 4});  // some never fit
}

TEST(LruCacheDifferential, GrowsThroughManyDoublings) {
  // A large capacity keeps thousands of objects resident, so the index
  // doubles many times while evictions and erases churn it.
  run_differential({PolicyKind::Lru, 6000, 9000, 1, 5});
}

TEST(LruCacheDifferential, FifoMatchesListReferenceWithoutPromotion) {
  run_differential({PolicyKind::Fifo, 300, 1000, 1, 6});
  run_differential({PolicyKind::Fifo, 500, 2000, 9, 7});
}

}  // namespace
