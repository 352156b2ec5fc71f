// ObjectId → 32-bit value index shared by every cache policy.
//
// One open-addressing table: (key, value) pairs side by side in a single
// power-of-two array, Fibonacci-hashed home buckets, linear probing, and
// backward-shift deletion, so there are no tombstones and probe runs never
// lengthen under insert/erase churn. The table doubles when an insert would
// take it past 3/4 load; apart from that doubling nothing allocates. A
// value of kAbsent marks an empty bucket, so callers store any value but
// kAbsent (the policies store a slot or position index).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache.hpp"

namespace idicn::cache {

class FlatIndex {
public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// The value mapped to `key`, or kAbsent.
  [[nodiscard]] std::uint32_t find(ObjectId key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home_bucket(key);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.value == kAbsent) return kAbsent;
      if (b.key == key) return b.value;
    }
  }

  [[nodiscard]] bool contains(ObjectId key) const noexcept {
    return find(key) != kAbsent;
  }

  /// Map `key`, which must be absent, to `value` (anything but kAbsent).
  void insert(ObjectId key, std::uint32_t value) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) grow();
    std::size_t i = home_bucket(key);
    while (buckets_[i].value != kAbsent) i = (i + 1) & mask_;
    buckets_[i] = Bucket{key, value};
    ++size_;
  }

  /// Re-point `key`, which must be present, at `value`.
  void update(ObjectId key, std::uint32_t value) noexcept {
    std::size_t i = home_bucket(key);
    while (buckets_[i].key != key || buckets_[i].value == kAbsent) i = (i + 1) & mask_;
    buckets_[i].value = value;
  }

  /// Remove `key`; returns the value it mapped to, or kAbsent.
  std::uint32_t erase(ObjectId key) noexcept {
    if (size_ == 0) return kAbsent;
    std::size_t hole = home_bucket(key);
    for (;; hole = (hole + 1) & mask_) {
      if (buckets_[hole].value == kAbsent) return kAbsent;
      if (buckets_[hole].key == key) break;
    }
    const std::uint32_t value = buckets_[hole].value;
    // Backward shift: pull each later member of the probe run into the
    // hole unless the hole lies before its home bucket (cyclically).
    for (std::size_t j = (hole + 1) & mask_; buckets_[j].value != kAbsent;
         j = (j + 1) & mask_) {
      const std::size_t home = home_bucket(buckets_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].value = kAbsent;
    --size_;
    return value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// The bucket a probe for `key` starts at (bucket_count() must be > 0).
  [[nodiscard]] std::size_t home_bucket(ObjectId key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

private:
  struct Bucket {
    ObjectId key = 0;
    std::uint32_t value = kAbsent;
  };

  void grow() {
    std::vector<Bucket> old;
    old.swap(buckets_);
    const std::size_t count = old.empty() ? 16 : old.size() * 2;
    buckets_.resize(count);
    mask_ = count - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(count));
    for (const Bucket& b : old) {
      if (b.value == kAbsent) continue;
      std::size_t i = home_bucket(b.key);
      while (buckets_[i].value != kAbsent) i = (i + 1) & mask_;
      buckets_[i] = b;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::size_t size_ = 0;
};

}  // namespace idicn::cache
