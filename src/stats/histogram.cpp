#include "stats/histogram.hpp"

#include <algorithm>
#include <sstream>

namespace nfp {

Histogram& Histogram::operator+=(const Histogram& other) noexcept {
  if (other.total == 0) return *this;
  if (total == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else if (min_ <= max_ && other.min_ <= other.max_) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  } else {
    min_ = ~u64{0};  // one side has no exact extremes: neither does the sum
    max_ = 0;
  }
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
  return *this;
}

u64 Histogram::min() const noexcept {
  if (total == 0) return 0;
  if (min_ <= max_) return min_;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] != 0) return value_of(i);
  }
  return 0;
}

u64 Histogram::max() const noexcept {
  if (total == 0) return 0;
  if (min_ <= max_) return max_;
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (counts[i] != 0) return value_of(i);
  }
  return 0;
}

u64 Histogram::quantile(double q) const noexcept {
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  u64 target = static_cast<u64>(q * static_cast<double>(total - 1)) + 1;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] >= target) return value_of(i);
    target -= counts[i];
  }
  return max();
}

std::string Histogram::summary() const {
  std::ostringstream out;
  out.precision(1);
  out << std::fixed;
  out << "count=" << total << " min=" << min() << " mean=" << mean()
      << " p50=" << quantile(0.5) << " p90=" << quantile(0.9)
      << " p99=" << quantile(0.99) << " max=" << max();
  return out.str();
}

Histogram histogram_delta(const Histogram& now,
                          const Histogram& then) noexcept {
  const auto sub = [](u64 a, u64 b) { return a >= b ? a - b : 0; };
  Histogram d;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    d.counts[i] = sub(now.counts[i], then.counts[i]);
  }
  d.total = sub(now.total, then.total);
  d.sum = sub(now.sum, then.sum);
  return d;
}

}  // namespace nfp
