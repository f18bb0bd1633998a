// Log-bucketed latency histogram: the one HDR type of the code base.
//
// The LatencyRecorder stores raw samples (fine for bounded bench runs);
// this histogram is the constant-memory companion for long-running
// deployments and the live plane: HdrHistogram-style log2 buckets with
// linear sub-buckets, bounded relative error, mergeable across cores and
// shards.
//
// Geometry: values 0..15 are exact; above that each power of two splits
// into kSubBuckets linear sub-buckets. 40 exponents reach 2^43 ns (about
// 2.4 hours); larger values clamp into the last bucket. A bucket's lower
// bound b satisfies b <= v < b + b/16 for every value v it holds, so
// quantiles (reported as lower bounds) carry a relative error of at most
// 1/kSubBuckets.
//
// min()/max() are exact while every sample came in through record() (and
// merges of such histograms). A histogram whose counts were set from the
// outside — a snapshot of per-thread atomics, or a delta against a
// baseline — has no exact extremes, and min()/max() fall back to the
// lower bounds of the first and last occupied buckets.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace nfp {

class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 16;  // per power of two
  static constexpr std::size_t kBuckets = 40 * kSubBuckets;

  std::array<u64, kBuckets> counts{};
  u64 total = 0;
  u64 sum = 0;  // exact sum of the recorded values

  // The one bucket-index function; values past the range clamp into the
  // last bucket.
  static constexpr std::size_t index_of(u64 value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const auto exponent = static_cast<std::size_t>(msb) - 3;  // log2(16)=4-1
    const std::size_t sub =
        static_cast<std::size_t>(value >> (msb - 4)) & (kSubBuckets - 1);
    const std::size_t idx = exponent * kSubBuckets + sub;
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  // Lower bound of bucket `index`.
  static constexpr u64 value_of(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t exponent = index / kSubBuckets;
    const std::size_t sub = index % kSubBuckets;
    const int shift = static_cast<int>(exponent) - 1;
    return (u64{kSubBuckets} << shift) | (static_cast<u64>(sub) << shift);
  }

  void record(u64 value) noexcept {
    ++counts[index_of(value)];
    ++total;
    sum += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  Histogram& operator+=(const Histogram& other) noexcept;

  u64 count() const noexcept { return total; }
  u64 min() const noexcept;
  u64 max() const noexcept;
  double mean() const noexcept {
    return total ? static_cast<double>(sum) / static_cast<double>(total)
                 : 0.0;
  }

  // Bucket lower bound at quantile q in [0, 1] (the reported value never
  // exceeds the true one).
  u64 quantile(double q) const noexcept;

  std::string summary() const;

 private:
  // Exact extremes of the recorded samples; min_ > max_ while there are
  // none (a fresh or externally filled histogram).
  u64 min_ = ~u64{0};
  u64 max_ = 0;
};

// now - then per bucket, saturating at zero (a baseline may outlive the
// counters it was taken from). The result has bucket-derived min/max.
Histogram histogram_delta(const Histogram& now, const Histogram& then) noexcept;

}  // namespace nfp
