// Tests for the log-bucketed histogram: bucket geometry, the bounded
// quantile error vs. exact sorted samples (uniform/zipf/bimodal inputs),
// merge semantics, and when min/max are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "stats/histogram.hpp"

namespace nfp {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (u64 v : {1, 2, 3, 4, 5}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_NEAR(h.mean(), 3.0, 1e-9);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 3u);
  EXPECT_EQ(h.quantile(1.0), 5u);
}

TEST(HistogramTest, BoundedRelativeError) {
  Histogram h;
  Rng rng(5);
  std::vector<u64> values;
  for (int i = 0; i < 50'000; ++i) {
    const u64 v = rng.range(1, 10'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const u64 exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const u64 approx = h.quantile(q);
    const double rel = std::abs(static_cast<double>(approx) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LT(rel, 0.10) << "q=" << q << " exact=" << exact
                         << " approx=" << approx;
  }
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(6);
  for (int i = 0; i < 1'000; ++i) {
    const u64 v = rng.range(1, 100'000);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a += b;
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  for (const double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q)) << q;
  }
}

TEST(HistogramTest, HugeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.record(~u64{0} >> 1);
  h.record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_GE(h.quantile(1.0), u64{1} << 32);
}

TEST(HistogramTest, QuantileExtremes) {
  Histogram h;
  for (u64 v : {10, 20, 30, 40, 50}) h.record(v);
  // q clamps outside [0, 1]; q=0 is the min bucket, q=1 the max bucket.
  EXPECT_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_EQ(h.quantile(1.5), h.quantile(1.0));
  EXPECT_EQ(h.quantile(0.0), 10u);
  EXPECT_EQ(h.quantile(1.0), 50u);
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.record(7);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 7u) << "q=" << q;
  }
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.mean(), 7.0);
}

TEST(HistogramTest, MergeEmptyIntoPopulatedKeepsMin) {
  Histogram a;
  a.record(100);
  a.record(200);
  const Histogram empty;
  a += empty;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u) << "merging an empty histogram must not clobber min";
  EXPECT_EQ(a.max(), 200u);
}

TEST(HistogramTest, MergePopulatedIntoEmptyAdoptsMin) {
  Histogram a;  // empty
  Histogram b;
  b.record(500);
  b.record(900);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 500u);
  EXPECT_EQ(a.max(), 900u);
}

TEST(HistogramTest, MergeEqualCountsKeepsTrueMin) {
  // Regression: the old merge used `total_ == other.total_` as an "I was
  // empty" proxy, which mis-fired when both sides held the same number of
  // samples and stamped the other side's larger min.
  Histogram a;
  a.record(10);
  Histogram b;
  b.record(99);
  a += b;
  EXPECT_EQ(a.min(), 10u);

  Histogram c;
  c.record(99);
  Histogram d;
  d.record(10);
  c += d;
  EXPECT_EQ(c.min(), 10u);
}

TEST(HistogramTest, QuantilesAfterMerge) {
  Histogram a;
  Histogram b;
  for (u64 v = 1; v <= 50; ++v) a.record(v);
  for (u64 v = 51; v <= 100; ++v) b.record(v);
  a += b;
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.quantile(0.0), 1u);
  EXPECT_EQ(a.quantile(1.0), 100u);  // 100 is exactly representable
  // Median falls in the middle of the merged distribution.
  const u64 p50 = a.quantile(0.5);
  EXPECT_GE(p50, 45u);
  EXPECT_LE(p50, 55u);
}

TEST(HistogramTest, SummaryMentionsKeyStats) {
  Histogram h;
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  const std::string s = h.summary();
  EXPECT_NE(s.find("count=100"), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

// --- geometry and the quantile error bound ------------------------------

u64 xorshift(u64* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Exact quantile with the same rank convention as Histogram::quantile:
// the ceil(q * (n-1) + 1)-th smallest value -> index floor(q * (n-1)).
u64 exact_quantile(std::vector<u64> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// Records `values` and asserts each quantile is the bucket lower bound of
// a value close to the exact one: hdr <= exact (lower bounds never
// overshoot) and hdr >= exact - exact/16 - 1 (bounded relative error).
void check_distribution(const std::vector<u64>& values, const char* label) {
  Histogram h;
  for (const u64 v : values) h.record(v);
  ASSERT_EQ(h.count(), values.size()) << label;
  u64 sum = 0;
  for (const u64 v : values) sum += v;
  EXPECT_EQ(h.sum, sum) << label;
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const u64 exact = exact_quantile(values, q);
    const u64 hdr = h.quantile(q);
    EXPECT_LE(hdr, exact) << label << " q=" << q;
    EXPECT_GE(hdr + exact / Histogram::kSubBuckets + 1, exact)
        << label << " q=" << q;
  }
}

TEST(HistogramTest, BucketGeometryRoundTrips) {
  // Values 0..15 are exact; above that the bucket lower bound is within
  // 1/kSubBuckets of the value, and value_of(index_of(v)) <= v.
  for (u64 v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::value_of(Histogram::index_of(v)), v);
  }
  u64 seed = 99;
  for (int i = 0; i < 10'000; ++i) {
    const u64 v = xorshift(&seed) >> (i % 40);
    const std::size_t idx = Histogram::index_of(v);
    ASSERT_LT(idx, Histogram::kBuckets);
    const u64 lo = Histogram::value_of(idx);
    if (idx + 1 < Histogram::kBuckets &&
        Histogram::value_of(idx + 1) > lo) {
      EXPECT_LE(lo, v);
      EXPECT_GT(Histogram::value_of(idx + 1), v);
      EXPECT_LE(Histogram::value_of(idx + 1) - lo,
                lo / Histogram::kSubBuckets + 1);
    }
  }
}

TEST(HistogramTest, QuantileErrorBoundUniform) {
  std::vector<u64> values;
  u64 seed = 1;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(xorshift(&seed) % 1'000'000);
  }
  check_distribution(values, "uniform");
}

TEST(HistogramTest, QuantileErrorBoundZipf) {
  // Heavy-tailed: value ~ 1/rank over 1000 ranks, scaled to microseconds.
  std::vector<u64> values;
  u64 seed = 2;
  for (int i = 0; i < 20'000; ++i) {
    const u64 r = 1 + xorshift(&seed) % 1'000;
    values.push_back(50'000'000 / r);
  }
  check_distribution(values, "zipf");
}

TEST(HistogramTest, QuantileErrorBoundBimodal) {
  // 95% fast path around 8us, 5% slow outliers around 2ms — the shape
  // whose p99/p999 split the latency observatory exists to expose.
  std::vector<u64> values;
  u64 seed = 3;
  for (int i = 0; i < 20'000; ++i) {
    if (xorshift(&seed) % 100 < 95) {
      values.push_back(7'000 + xorshift(&seed) % 2'000);
    } else {
      values.push_back(1'900'000 + xorshift(&seed) % 200'000);
    }
  }
  check_distribution(values, "bimodal");
}

// --- exact vs. bucket-derived extremes ----------------------------------

TEST(HistogramTest, MinMaxExactOnlyWhenRecorded) {
  Histogram recorded;
  recorded.record(1'000);
  recorded.record(50'001);
  EXPECT_EQ(recorded.min(), 1'000u);
  EXPECT_EQ(recorded.max(), 50'001u);

  // The same counts set from outside (a snapshot of atomics) only know
  // their buckets: the extremes are the occupied buckets' lower bounds.
  Histogram rebuilt;
  rebuilt.counts = recorded.counts;
  rebuilt.total = recorded.total;
  rebuilt.sum = recorded.sum;
  EXPECT_EQ(rebuilt.min(), Histogram::value_of(Histogram::index_of(1'000)));
  EXPECT_EQ(rebuilt.max(), Histogram::value_of(Histogram::index_of(50'001)));
  EXPECT_LT(rebuilt.max(), 50'001u);

  // Merging in a side without exact extremes loses them; merging into an
  // empty histogram keeps whatever the other side has.
  Histogram merged = recorded;
  merged += rebuilt;
  EXPECT_EQ(merged.max(), rebuilt.max());
  Histogram empty;
  empty += recorded;
  EXPECT_EQ(empty.max(), 50'001u);
}

TEST(HistogramTest, DeltaSaturatesAndHasBucketExtremes) {
  Histogram then;
  then.record(100);
  then.record(100);
  Histogram now = then;
  now.record(70'000);
  const Histogram d = histogram_delta(now, then);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.sum, 70'000u);
  EXPECT_EQ(d.min(), Histogram::value_of(Histogram::index_of(70'000)));
  EXPECT_EQ(d.max(), d.min());
  // A baseline above the current counts (a restarted source) gives zero.
  const Histogram back = histogram_delta(then, now);
  EXPECT_EQ(back.count(), 0u);
  EXPECT_EQ(back.sum, 0u);
  EXPECT_EQ(back.quantile(0.5), 0u);
}

}  // namespace
}  // namespace nfp
