// SPSC ring correctness: single-threaded semantics plus a 2-thread
// stress test for the acquire/release protocol.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "ring/spsc_ring.hpp"

namespace nfp {
namespace {

TEST(SpscRing, PushPopFifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  int out;
  EXPECT_FALSE(ring.pop(out));
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));
  int out;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_TRUE(ring.push(99));
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty());
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  int out;
  ring.pop(out);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  int expected = 0;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(ring.push(round));
    int out;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, expected++);
  }
}

TEST(SpscRing, BurstPushPopSemantics) {
  SpscRing<int> ring(8);
  const std::array<int, 5> first{0, 1, 2, 3, 4};
  EXPECT_EQ(ring.push_burst(first), 5u);
  // Only 3 slots left: the burst is truncated, not rejected.
  const std::array<int, 6> second{5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ring.push_burst(second), 3u);
  EXPECT_EQ(ring.push_burst(second), 0u);  // full

  std::array<int, 6> out{};
  EXPECT_EQ(ring.pop_burst(out), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ring.pop_burst(out), 2u);  // the remainder
  EXPECT_EQ(out[0], 6);
  EXPECT_EQ(out[1], 7);
  EXPECT_EQ(ring.pop_burst(out), 0u);  // empty
}

TEST(SpscRing, BurstInteroperatesWithSingleOps) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.push(1));
  const std::array<int, 2> burst{2, 3};
  EXPECT_EQ(ring.push_burst(burst), 2u);
  int v = 0;
  ASSERT_TRUE(ring.pop(v));
  EXPECT_EQ(v, 1);
  std::array<int, 4> out{};
  EXPECT_EQ(ring.pop_burst(out), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
}

// Mixed burst sizes across the thread boundary: the acquire/release pairing
// of the single-publish-per-burst protocol must deliver every element
// exactly once, in order. (Runs under TSan in CI.)
TEST(SpscRing, BurstTwoThreadStress) {
  constexpr int kCount = 200'000;
  SpscRing<int> ring(128);

  std::thread consumer([&] {
    std::array<int, 17> buf{};  // deliberately co-prime with producer bursts
    int expect = 0;
    while (expect < kCount) {
      const std::size_t n = ring.pop_burst(buf);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], expect++) << "burst order violated";
      }
    }
  });

  std::array<int, 23> staged{};
  int next = 0;
  while (next < kCount) {
    std::size_t len = 0;
    while (len < staged.size() && next < kCount) staged[len++] = next++;
    std::size_t sent = 0;
    while (sent < len) {
      const std::size_t m =
          ring.push_burst(std::span<const int>(staged.data() + sent,
                                               len - sent));
      if (m == 0) {
        std::this_thread::yield();
      } else {
        sent += m;
      }
    }
  }
  consumer.join();
}

// Telemetry probes call size() from a third thread while both ends run.
// The old implementation loaded head before tail, so a pop between the two
// loads produced a wrapped-around huge value; size() must stay within
// [0, capacity] no matter the interleaving.
TEST(SpscRing, SizeStaysClampedUnderConcurrentObserver) {
  SpscRing<int> ring(64);
  std::atomic<bool> done{false};
  std::atomic<bool> violation{false};

  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t s = ring.size();
      if (s > ring.capacity()) violation.store(true);
    }
  });

  std::thread consumer([&] {
    int got = 0;
    int v;
    while (got < 100'000) {
      if (ring.pop(v)) {
        ++got;
      }
    }
  });

  for (int i = 0; i < 100'000; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
  }
  consumer.join();
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_FALSE(violation.load()) << "size() exceeded capacity";
}

TEST(SpscRing, TwoThreadStress) {
  constexpr int kCount = 200'000;
  SpscRing<int> ring(256);
  std::vector<int> received;
  received.reserve(kCount);

  std::thread consumer([&] {
    int got = 0;
    while (got < kCount) {
      int v;
      if (ring.pop(v)) {
        received.push_back(v);
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (int i = 0; i < kCount; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
  }
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i) << "order violated";
  }
}

}  // namespace
}  // namespace nfp
