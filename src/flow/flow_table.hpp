// Bounded per-flow state table with exact LRU eviction.
//
// Generic substrate behind stateful per-flow state on the packet path: the
// shard's microflow cache, monitor counters, NAT bindings. Real middleboxes
// bound their flow state and evict the least-recently-used entry under
// pressure, and eviction is observable (evictions()) for tests.
//
// Layout: one contiguous slab of {key, prev, next, value} entries. The LRU
// order (head = most recent) and the free list of erased entries are u32
// links inside the slab, so touching, evicting and recycling an entry
// moves no memory and allocates nothing. A FlowIndex (flow/flow_index.hpp)
// sits in front: a linear-probing array of {hash bits, slot} at load <= 1/2
// that rejects non-matching positions without touching the slab.
//
// Growth is lazy: the slab and the index start empty and double as flows
// arrive, up to `capacity`, so a table that never fills (a monitor in front
// of a few hundred flows) never pays for its full capacity. Once the slab
// is full every insert reuses the LRU victim's entry in place; steady-state
// operations allocate nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "flow/flow_index.hpp"

namespace nfp {

template <typename Value>
class FlowTable {
 public:
  // Capacities above 2^31 clamp to 2^31 (slots are u32).
  explicit FlowTable(std::size_t capacity = 65536)
      : capacity_(std::min(capacity, kMaxCapacity)) {
    assert(capacity > 0);
  }

  // Returns the entry for `key`, creating it (possibly evicting the LRU
  // entry) when absent. The returned reference is valid until the next
  // mutation of the table.
  Value& get_or_create(const FiveTuple& key) {
    const u32 hash = flow_hash32(key);
    u32 slot = find(hash, key);
    if (slot != kNoSlot) {
      move_to_front(slot);
      return slab_[slot].value;
    }
    slot = claim_slot();
    Entry& e = slab_[slot];
    e.key = key;
    e.value = Value{};
    index_.insert(hash, slot);
    link_front(slot);
    ++size_;
    return e.value;
  }

  // Lookup that refreshes the LRU position on a hit; nullptr when absent.
  // One index walk — the hit path of a cache built on this table should be
  // touch(), not peek() followed by get_or_create().
  Value* touch(const FiveTuple& key) {
    const u32 slot = find(flow_hash32(key), key);
    if (slot == kNoSlot) return nullptr;
    move_to_front(slot);
    return &slab_[slot].value;
  }

  // Lookup without touching LRU order; nullptr when absent.
  const Value* peek(const FiveTuple& key) const {
    const u32 slot = find(flow_hash32(key), key);
    return slot == kNoSlot ? nullptr : &slab_[slot].value;
  }

  bool erase(const FiveTuple& key) {
    const u32 hash = flow_hash32(key);
    const u32 slot = find(hash, key);
    if (slot == kNoSlot) return false;
    index_.erase(hash, slot);
    unlink(slot);
    slab_[slot].next = free_;
    free_ = slot;
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  u64 evictions() const noexcept { return evictions_; }

  // Iteration in most-recently-used order (state export).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (u32 s = head_; s != kNoSlot; s = slab_[s].next) {
      fn(slab_[s].key, slab_[s].value);
    }
  }

  // Drops every entry; keeps the grown slab and index for reuse.
  void clear() {
    index_.clear();
    slab_.clear();
    head_ = tail_ = free_ = kNoSlot;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 31;
  static constexpr std::size_t kFirstSlab = 16;

  struct Entry {
    FiveTuple key;
    u32 prev = kNoSlot;  // towards the most recent entry
    u32 next = kNoSlot;  // towards the LRU entry; free-list link when erased
    Value value{};
  };

  u32 find(u32 hash, const FiveTuple& key) const {
    return index_.find(hash, [&](u32 s) { return slab_[s].key == key; });
  }

  // An unlinked slot for a new entry: a recycled erased entry, else a fresh
  // slab entry (growing slab and index together), else the LRU victim.
  u32 claim_slot() {
    if (free_ != kNoSlot) {
      const u32 s = free_;
      free_ = slab_[s].next;
      return s;
    }
    if (slab_.size() < capacity_) {
      if (slab_.size() == slab_.capacity()) {
        slab_.reserve(std::min(capacity_,
                               std::max(kFirstSlab, 2 * slab_.size())));
        index_.reserve(slab_.capacity());
      }
      slab_.emplace_back();
      return static_cast<u32>(slab_.size() - 1);
    }
    const u32 victim = tail_;
    index_.erase(flow_hash32(slab_[victim].key), victim);
    unlink(victim);
    --size_;
    ++evictions_;
    return victim;
  }

  void unlink(u32 s) noexcept {
    const Entry& e = slab_[s];
    (e.prev != kNoSlot ? slab_[e.prev].next : head_) = e.next;
    (e.next != kNoSlot ? slab_[e.next].prev : tail_) = e.prev;
  }

  void link_front(u32 s) noexcept {
    Entry& e = slab_[s];
    e.prev = kNoSlot;
    e.next = head_;
    (head_ != kNoSlot ? slab_[head_].prev : tail_) = s;
    head_ = s;
  }

  void move_to_front(u32 s) noexcept {
    if (s == head_) return;
    unlink(s);
    link_front(s);
  }

  std::size_t capacity_;
  std::vector<Entry> slab_;  // live entries and erased ones on the free list
  FlowIndex index_;
  u32 head_ = kNoSlot;  // most recently used
  u32 tail_ = kNoSlot;  // least recently used: the next victim
  u32 free_ = kNoSlot;  // erased slab entries, linked through `next`
  std::size_t size_ = 0;
  u64 evictions_ = 0;
};

}  // namespace nfp
