// LRU cache — the paper's baseline replacement policy — and FIFO.
//
// Slots live in a contiguous vector threaded by an intrusive doubly-linked
// list (head = most recent), found through a FlatIndex (ObjectId → slot).
// A hit moves its slot to the head; eviction takes the tail. FIFO is the
// same list with promotion switched off: lookups and re-inserts leave the
// arrival order alone. All operations are O(1) expected; freed slots are
// reused, so once the slot vector and the index have grown to the cache's
// peak object count, nothing allocates.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "cache/flat_index.hpp"

namespace idicn::cache {

class LruCache final : public Cache {
public:
  /// `promote_on_hit = false` gives FIFO (PolicyKind::Fifo).
  explicit LruCache(std::uint64_t capacity, bool promote_on_hit = true);

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

  /// Visit the cached objects most recent first (FIFO: newest first) until
  /// `visit(object)` returns false.
  template <class Visit>
  void for_each_recent(Visit visit) const {
    for (std::uint32_t slot = head_; slot != kNil; slot = slots_[slot].next) {
      if (!visit(slots_[slot].object)) return;
    }
  }

private:
  static constexpr std::uint32_t kNil = FlatIndex::kAbsent;

  struct Slot {
    ObjectId object = 0;
    std::uint64_t size = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t slot) noexcept;
  void link_front(std::uint32_t slot) noexcept;
  void promote(std::uint32_t slot) noexcept;
  void evict_lru(std::vector<ObjectId>& evicted);

  std::uint64_t capacity_;
  bool promote_on_hit_;
  std::uint64_t used_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNil;  // most recently used (FIFO: newest)
  std::uint32_t tail_ = kNil;  // least recently used (FIFO: oldest)
  FlatIndex index_;
};

}  // namespace idicn::cache
