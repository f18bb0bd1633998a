// Tests for the sharded-observatory skeleton, once, over a synthetic
// snapshot type: baselines at add_shard and reset_baseline, saturation of
// a restarted counter, the 200 ms probe cache under an injected clock, and
// report() racing add_shard (a TSan workload).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/sharded_observatory.hpp"

namespace nfp {
namespace {

struct CountSnapshot {
  u64 events = 0;
  CountSnapshot& operator+=(const CountSnapshot& other) {
    events += other.events;
    return *this;
  }
};

struct CountReport {
  struct Shard {
    std::string name;
    CountSnapshot d;
  };
  std::vector<Shard> shards;
  CountSnapshot total;
  double wall_seconds = 0;
  std::string to_json() const {
    return "{\"events\":" + std::to_string(total.events) + "}";
  }
};

class CountObservatory final
    : public telemetry::ShardedObservatory<CountSnapshot, CountReport> {
 public:
  explicit CountObservatory(std::function<u64()> clock = {})
      : ShardedObservatory(std::move(clock)) {}
  using ShardedObservatory::shard_probe;

 private:
  CountSnapshot delta(CountSnapshot now,
                      const CountSnapshot& base) const override {
    now.events = now.events >= base.events ? now.events - base.events : 0;
    return now;
  }
};

TEST(ShardedObservatoryTest, AddShardCapturesBaseline) {
  u64 events = 40;
  CountObservatory obs;
  obs.add_shard("s0", [&events] { return CountSnapshot{events}; });
  EXPECT_EQ(obs.shard_count(), 1u);
  events = 45;
  const CountReport rep = obs.report();
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_EQ(rep.shards[0].name, "s0");
  EXPECT_EQ(rep.shards[0].d.events, 5u);  // not 45: the 40 is baseline
  EXPECT_EQ(rep.total.events, 5u);
  EXPECT_EQ(obs.to_json(), "{\"events\":5}");
}

TEST(ShardedObservatoryTest, ResetBaselineZeroesDelta) {
  u64 now = 1'000'000'000;
  u64 a = 0;
  u64 b = 0;
  CountObservatory obs([&now] { return now; });
  obs.add_shard("a", [&a] { return CountSnapshot{a}; });
  obs.add_shard("b", [&b] { return CountSnapshot{b}; });
  a = 7;
  b = 3;
  now += 2'000'000'000;
  CountReport rep = obs.report();
  EXPECT_EQ(rep.total.events, 10u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);

  obs.reset_baseline();
  rep = obs.report();
  EXPECT_EQ(rep.total.events, 0u);
  EXPECT_EQ(rep.shards[0].d.events, 0u);
  EXPECT_EQ(rep.shards[1].d.events, 0u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 0.0);
}

TEST(ShardedObservatoryTest, RestartedCounterSaturatesAtZero) {
  u64 now = 5'000;
  u64 events = 100;
  CountObservatory obs([&now] { return now; });
  obs.add_shard("s0", [&events] { return CountSnapshot{events}; });
  obs.reset_baseline();
  events = 30;  // the source restarted below its baseline
  now = 1'000;  // and a clock read before the baseline
  const CountReport rep = obs.report();
  EXPECT_EQ(rep.shards[0].d.events, 0u);
  EXPECT_EQ(rep.total.events, 0u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 0.0);
}

TEST(ShardedObservatoryTest, ProbesRefreshAtMostEvery200ms) {
  u64 now = 1'000'000'000;
  u64 events = 0;
  int folds = 0;
  CountObservatory obs([&now] { return now; });
  obs.add_shard("s0", [&] {
    ++folds;
    return CountSnapshot{events};
  });
  const int after_add = folds;
  const auto read = [](const CountReport::Shard& sh) {
    return static_cast<double>(sh.d.events);
  };
  const std::function<double()> probe = obs.shard_probe(0, read);
  const std::function<double()> twin = obs.shard_probe(0, read);
  const std::function<double()> gone = obs.shard_probe(1, read);

  events = 5;
  EXPECT_EQ(probe(), 5.0);
  EXPECT_EQ(twin(), 5.0);  // same tick: served from the cache
  EXPECT_EQ(gone(), 0.0);  // no such shard
  EXPECT_EQ(folds, after_add + 1);

  events = 9;
  now += 200'000'000;  // exactly 200 ms: still cached
  EXPECT_EQ(probe(), 5.0);
  EXPECT_EQ(folds, after_add + 1);
  now += 1;
  EXPECT_EQ(twin(), 9.0);
  EXPECT_EQ(probe(), 9.0);
  EXPECT_EQ(folds, after_add + 2);
}

TEST(ShardedObservatoryTest, ConcurrentReportDuringAddShard) {
  constexpr std::size_t kShards = 200;
  std::atomic<u64> events{0};
  CountObservatory obs;
  std::thread adder([&] {
    for (std::size_t s = 0; s < kShards; ++s) {
      obs.add_shard("s" + std::to_string(s), [&events] {
        return CountSnapshot{events.load(std::memory_order_relaxed)};
      });
      events.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::size_t last = 0;
  while (last < kShards) {
    const CountReport rep = obs.report();
    EXPECT_GE(rep.shards.size(), last) << "a shard disappeared";
    for (std::size_t s = 0; s < rep.shards.size(); ++s) {
      EXPECT_EQ(rep.shards[s].name, "s" + std::to_string(s));
    }
    last = rep.shards.size();
  }
  adder.join();
  EXPECT_EQ(obs.shard_count(), kShards);
}

}  // namespace
}  // namespace nfp
