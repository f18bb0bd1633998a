// Linear-probing hash index over 5-tuple keys: the one flat hash design
// behind every per-flow lookup on the shard's packet path — FlowTable's LRU
// slab (microflow cache, monitor counters, NAT bindings) and the tuple-space
// classifier's per-mask-signature and exact-match tables.
//
// The index maps a key to a u32 slot of a slab the caller owns; it never
// stores or compares keys itself. Each position holds {32 hash bits, slot}:
//  - a probe compares the stored hash bits before asking the caller to
//    compare keys, so a non-matching position is rejected without touching
//    the slab;
//  - a key's home position is its stored hash bits masked to the position
//    count, so growing the index and the backward shifts of a deletion
//    re-place positions from their stored bits and never rehash a key.
// The position count is a power of two and reserve() keeps the load at most
// 1/2, so probe chains stay short. Deletion shifts the rest of the chain
// back instead of leaving a tombstone, so a miss always ends at the first
// empty position however many erases came before.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace nfp {

// "No slot": an empty index position, or the end of a slab link chain.
inline constexpr u32 kNoSlot = ~u32{0};

// The hash bits an index stores for `key`.
inline u32 flow_hash32(const FiveTuple& key) noexcept {
  return static_cast<u32>(hash_five_tuple(key));
}

class FlowIndex {
 public:
  // Slot of the entry stored under `hash` for which `is_key(slot)` holds;
  // kNoSlot when there is none.
  template <typename IsKey>
  u32 find(u32 hash, IsKey&& is_key) const {
    if (pos_.empty()) return kNoSlot;
    for (u32 i = hash & mask_;; i = (i + 1) & mask_) {
      const Position& p = pos_[i];
      if (p.slot == kNoSlot) return kNoSlot;
      if (p.hash == hash && is_key(p.slot)) return p.slot;
    }
  }

  // Adds `slot` under `hash`. The key must be absent, and reserve() must
  // have made room for it.
  void insert(u32 hash, u32 slot) noexcept {
    u32 i = hash & mask_;
    while (pos_[i].slot != kNoSlot) i = (i + 1) & mask_;
    pos_[i] = {hash, slot};
  }

  // Removes the position naming `slot`, which must be stored under `hash`,
  // and shifts the rest of its probe chain back over the hole.
  void erase(u32 hash, u32 slot) noexcept {
    u32 hole = hash & mask_;
    while (pos_[hole].slot != slot) hole = (hole + 1) & mask_;
    for (u32 i = (hole + 1) & mask_; pos_[i].slot != kNoSlot;
         i = (i + 1) & mask_) {
      // The entry at i may move back into the hole unless its home lies
      // cyclically in (hole, i] — then the hole is not on its probe path.
      const u32 home = pos_[i].hash & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        pos_[hole] = pos_[i];
        hole = i;
      }
    }
    pos_[hole].slot = kNoSlot;
  }

  // Makes room for `entries` entries at load <= 1/2. Growth doubles (at
  // least) and re-places every position from its stored hash bits.
  void reserve(std::size_t entries) {
    const std::size_t want =
        std::bit_ceil(std::max<std::size_t>(2 * entries, 2));
    if (want <= pos_.size()) return;
    const std::vector<Position> old =
        std::exchange(pos_, std::vector<Position>(want));
    mask_ = static_cast<u32>(want - 1);
    for (const Position& p : old) {
      if (p.slot != kNoSlot) insert(p.hash, p.slot);
    }
  }

  // Empties every position and keeps the allocation.
  void clear() noexcept { std::fill(pos_.begin(), pos_.end(), Position{}); }

  std::size_t positions() const noexcept { return pos_.size(); }

 private:
  struct Position {
    u32 hash = 0;
    u32 slot = kNoSlot;
  };

  std::vector<Position> pos_;
  u32 mask_ = 0;
};

}  // namespace nfp
