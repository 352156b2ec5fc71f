// RANDOM and unbounded caches (FIFO is LruCache without promotion).
//
// RANDOM is an ablation baseline (bench_ablation_policies); the unbounded
// cache backs the paper's Inf-Budget reference point (Fig. 10) and the
// origin servers' "very large cache" for owned objects (§4.1).
#pragma once

#include <random>
#include <vector>

#include "cache/cache.hpp"
#include "cache/flat_index.hpp"

namespace idicn::cache {

/// Uniform-random eviction.
class RandomCache final : public Cache {
public:
  RandomCache(std::uint64_t capacity, std::uint64_t seed);

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  void insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return members_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  struct Member {
    ObjectId object = 0;
    std::uint64_t size = 0;
  };

  /// Swap-erase members_[position], keeping index_ pointing at the member
  /// that moves into its place.
  void remove_at(std::uint32_t position);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::mt19937_64 rng_;
  std::vector<Member> members_;  ///< dense; the victim draw picks a position
  FlatIndex index_;              ///< object → position in members_
};

/// Never evicts; capacity_units() reports a sentinel of UINT64_MAX.
class InfiniteCache final : public Cache {
public:
  InfiniteCache() = default;

  [[nodiscard]] bool lookup(ObjectId object) override { return contains(object); }
  [[nodiscard]] bool contains(ObjectId object) const override {
    return objects_.contains(object);
  }
  void insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& /*evicted*/) override {
    if (objects_.contains(object)) return;
    objects_.insert(object, static_cast<std::uint32_t>(members_.size()));
    members_.push_back(Member{object, size});
    used_ += size;
  }
  void erase(ObjectId object) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return objects_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return static_cast<std::uint64_t>(-1);
  }

private:
  struct Member {
    ObjectId object = 0;
    std::uint64_t size = 0;  ///< given back to used_ on erase
  };

  std::uint64_t used_ = 0;
  std::vector<Member> members_;  ///< dense; erase swap-removes
  FlatIndex objects_;            ///< object → position in members_
};

}  // namespace idicn::cache
