// Tests for the bounded LRU flow table: insert/lookup semantics, LRU
// eviction at capacity, erase/clear, MRU iteration order, a differential
// check against std::unordered_map as the reference model (while the table
// stays under capacity, the two must agree exactly), and a step-by-step
// check against a node-based LRU model over a key space larger than the
// table.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "flow/flow_table.hpp"
#include "packet/headers.hpp"

namespace nfp {
namespace {

FiveTuple tuple(std::size_t flow) {
  return FiveTuple{0x0A000000 + static_cast<u32>(flow),
                   0x0B000000 + static_cast<u32>(flow % 7),
                   static_cast<u16>(10'000 + flow),
                   static_cast<u16>(80 + flow % 2), kProtoTcp};
}

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(FlowTableTest, InsertAndLookup) {
  FlowTable<u64> table(16);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr);

  table.get_or_create(tuple(1)) = 42;
  ASSERT_NE(table.peek(tuple(1)), nullptr);
  EXPECT_EQ(*table.peek(tuple(1)), 42u);
  EXPECT_EQ(table.size(), 1u);

  // get_or_create on an existing key returns the same slot.
  table.get_or_create(tuple(1)) += 1;
  EXPECT_EQ(*table.peek(tuple(1)), 43u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(FlowTableTest, EvictsLeastRecentlyUsedAtCapacity) {
  FlowTable<u64> table(3);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  table.get_or_create(tuple(2)) = 2;
  // Touch flow 0 so flow 1 becomes the LRU victim.
  table.get_or_create(tuple(0));
  table.get_or_create(tuple(3)) = 3;

  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(table.peek(tuple(0)), nullptr);
  EXPECT_NE(table.peek(tuple(2)), nullptr);
  EXPECT_NE(table.peek(tuple(3)), nullptr);
}

TEST(FlowTableTest, PeekDoesNotTouchLruOrder) {
  FlowTable<u64> table(2);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  // peek must not rescue flow 0 from eviction.
  EXPECT_NE(table.peek(tuple(0)), nullptr);
  table.get_or_create(tuple(2)) = 2;
  EXPECT_EQ(table.peek(tuple(0)), nullptr);
  EXPECT_NE(table.peek(tuple(1)), nullptr);
}

TEST(FlowTableTest, TouchReturnsValueAndRefreshesLruInOneProbe) {
  FlowTable<u64> table(3);
  EXPECT_EQ(table.touch(tuple(1)), nullptr);  // miss: no insert, no evict
  EXPECT_EQ(table.size(), 0u);

  table.get_or_create(tuple(1)) = 11;
  table.get_or_create(tuple(2)) = 22;
  table.get_or_create(tuple(3)) = 33;

  u64* hit = table.touch(tuple(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 11u);
  *hit = 111;  // the pointer is writable (cache refresh in place)

  // The touch moved flow 1 to MRU: inserting one more evicts flow 2, the
  // now-least-recent entry, not flow 1.
  table.get_or_create(tuple(4)) = 44;
  EXPECT_EQ(table.peek(tuple(2)), nullptr);
  ASSERT_NE(table.peek(tuple(1)), nullptr);
  EXPECT_EQ(*table.peek(tuple(1)), 111u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FlowTableTest, EraseAndClear) {
  FlowTable<u64> table(8);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  EXPECT_TRUE(table.erase(tuple(0)));
  EXPECT_FALSE(table.erase(tuple(0)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.peek(tuple(0)), nullptr);

  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr);
}

TEST(FlowTableTest, ForEachIteratesMostRecentFirst) {
  FlowTable<u64> table(8);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  table.get_or_create(tuple(2)) = 2;
  table.get_or_create(tuple(1));  // touch: 1 becomes most recent

  std::vector<u64> order;
  table.for_each([&order](const FiveTuple&, const u64& v) {
    order.push_back(v);
  });
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 0}));
}

TEST(FlowTableTest, DifferentialAgainstUnorderedMap) {
  // Under capacity the table must behave exactly like a plain map: a
  // pseudo-random workload of inserts, increments and erases over a key
  // space smaller than capacity never evicts, so the end states match.
  constexpr std::size_t kKeys = 64;
  FlowTable<u64> table(kKeys + 1);
  std::unordered_map<u32, u64> model;

  for (u64 i = 0; i < 20'000; ++i) {
    const u64 r = splitmix(i);
    const std::size_t f = r % kKeys;
    if (r % 13 == 0) {
      const bool erased = table.erase(tuple(f));
      EXPECT_EQ(erased, model.erase(static_cast<u32>(f)) > 0) << "step " << i;
    } else {
      table.get_or_create(tuple(f)) += 1;
      model[static_cast<u32>(f)] += 1;
    }
  }

  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(table.size(), model.size());
  for (const auto& [key, count] : model) {
    const u64* got = table.peek(tuple(key));
    ASSERT_NE(got, nullptr) << "flow " << key;
    EXPECT_EQ(*got, count) << "flow " << key;
  }
  table.for_each([&model](const FiveTuple& key, const u64& count) {
    const auto it = model.find(key.src_ip - 0x0A000000);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(it->second, count);
  });
}

// The reference model: a std::list in MRU order plus a map of iterators
// into it, evicting the list's back at capacity.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}

  // Also records the victim of this call, if it evicted one.
  u64& get_or_create(const FiveTuple& key) {
    victim_.reset();
    if (u64* hit = touch(key)) return *hit;
    if (map_.size() >= capacity_) {
      victim_ = lru_.back().first;
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.emplace_front(key, 0);
    map_[key] = lru_.begin();
    return lru_.front().second;
  }

  u64* touch(const FiveTuple& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  const u64* peek(const FiveTuple& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second->second;
  }

  bool erase(const FiveTuple& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void clear() {
    lru_.clear();
    map_.clear();
  }

  std::size_t size() const { return map_.size(); }
  u64 evictions() const { return evictions_; }
  const std::optional<FiveTuple>& victim() const { return victim_; }
  std::vector<std::pair<FiveTuple, u64>> mru_order() const {
    return {lru_.begin(), lru_.end()};
  }

 private:
  using Entry = std::pair<FiveTuple, u64>;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<FiveTuple, std::list<Entry>::iterator, FiveTupleHash>
      map_;
  u64 evictions_ = 0;
  std::optional<FiveTuple> victim_;
};

std::vector<std::pair<FiveTuple, u64>> mru_order(const FlowTable<u64>& t) {
  std::vector<std::pair<FiveTuple, u64>> out;
  t.for_each([&out](const FiveTuple& k, const u64& v) {
    out.emplace_back(k, v);
  });
  return out;
}

// Random get_or_create/touch/peek/erase, with one clear halfway, over twice
// the table's capacity in keys, checked against LruModel after every step: the
// same results, size and evictions() each step, the victim gone from the
// table, and the whole MRU order with values whenever the size reaches a
// power of two (every growth doubling) and every 61 steps besides.
TEST(FlowTableTest, RandomOpsMatchListLruModelStepByStep) {
  for (const std::size_t capacity : {1u, 3u, 1000u, 1024u}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    FlowTable<u64> table(capacity);
    LruModel model(capacity);
    const std::size_t keys = 2 * capacity + 3;
    const u64 steps = 8 * capacity + 4'000;
    for (u64 i = 0; i < steps; ++i) {
      const u64 r = splitmix(i ^ (capacity << 32));
      const FiveTuple key = tuple(r % keys);
      const u64 op = (r >> 32) % 1000;
      if (op < 550) {
        table.get_or_create(key) += i;
        model.get_or_create(key) += i;
        if (model.victim().has_value()) {
          ASSERT_EQ(table.peek(*model.victim()), nullptr) << "step " << i;
        }
      } else if (op < 750) {
        u64* got = table.touch(key);
        u64* want = model.touch(key);
        ASSERT_EQ(got != nullptr, want != nullptr) << "step " << i;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want) << "step " << i;
          *got ^= i;
          *want ^= i;
        }
      } else if (op < 900) {
        const u64* got = table.peek(key);
        const u64* want = model.peek(key);
        ASSERT_EQ(got != nullptr, want != nullptr) << "step " << i;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want) << "step " << i;
        }
      } else {
        ASSERT_EQ(table.erase(key), model.erase(key)) << "step " << i;
      }
      if (i == steps / 2) {
        table.clear();
        model.clear();
      }
      ASSERT_EQ(table.size(), model.size()) << "step " << i;
      ASSERT_EQ(table.evictions(), model.evictions()) << "step " << i;
      if (i % 61 == 0 || std::has_single_bit(table.size())) {
        ASSERT_EQ(mru_order(table), model.mru_order()) << "step " << i;
      }
    }
    EXPECT_GT(table.evictions(), 0u);
    EXPECT_EQ(table.capacity(), capacity);
  }
}

}  // namespace
}  // namespace nfp
