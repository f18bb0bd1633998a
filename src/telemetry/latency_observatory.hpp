// Live tail-latency observatory: sampled per-packet stage timing across
// the sharded dataplane.
//
// NFP's headline result is latency — parallel NF graphs cut packet latency
// vs. the sequential chain (§6) — and the scalability profiler (PR 6) only
// attributes lost *throughput*. This observatory attributes every lost
// microsecond: deterministic 1-in-N sampling stamps selected packets at
// each hop and the egress thread decomposes the end-to-end time into an
// exact stage partition,
//
//   ingest      director feed() -> pipeline feed() (director pool/ring,
//               shard-worker classify, pipeline alloc + window waits)
//   queue       ring residency: enqueue -> the consuming NF reaches the
//               packet (includes in-burst head-of-line blocking)
//   service     inside NetworkFunction::process() calls
//   merge_wait  last sibling's out-ring push -> merge resolution (the
//               merger's reaction time; a slow sibling's cost lands in
//               queue/service of the critical branch, where it belongs)
//   egress      the saturating remainder to end-to-end (result commit,
//               clock quantization) — ~0 by construction
//   total       origin stamp -> delivery
//
// Stage spans telescope hop by hop (each hop contributes exactly
// next_mark - prev_mark), so ingest+queue+service+merge_wait+egress ==
// total per packet, which is the invariant the live 2-shard test asserts.
// In a parallel segment the merger follows the *critical branch* (the
// arrival whose out-push completed the merge set): its queue/service are
// accumulated and merge_wait is the span from its push to resolution.
//
// The recording contract mirrors ScalabilityProfiler: samples land in
// per-thread, cacheline-aligned StageLatencyBlocks written by exactly one
// thread (relaxed atomics); aggregation happens only at scrape time via
// per-shard snapshot callbacks. Storage is the fixed-footprint HDR
// histogram of stats/histogram.hpp, so quantiles carry a bounded relative
// error of 1/16 (6.25%) and snapshots merge associatively across shards.
//
// Surfaces: /latency.json, latency_<stage>_p99{shard=N} timeseries probes,
// per-shard queue-depth probes (SpscRing::size() sampled at scrape), the
// `nfp_cli top` latency panel and the `nfp_cli latency` seq-vs-parallel
// comparison. Overhead when off: one branch per packet per hop (the
// origin-stamp zero check); bench_hotpath_throughput's lat32-acct /
// lat32-noacct pair gates the enabled cost at 5%.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "stats/histogram.hpp"
#include "telemetry/sharded_observatory.hpp"

namespace nfp::telemetry {

class TimeseriesCollector;

// Hop-resolved stage set. kCount is the array bound.
enum class LatencyStage : unsigned {
  kIngest = 0,
  kQueue,
  kService,
  kMergeWait,
  kEgress,
  kTotal,
  kCount,
};
inline constexpr std::size_t kLatencyStageCount =
    static_cast<std::size_t>(LatencyStage::kCount);

// Stable snake_case names used in JSON, tables and timeseries probes.
const char* latency_stage_name(LatencyStage s) noexcept;

// Deterministic flow-hash sampling decision: all packets of a flow are
// sampled or none are, with no cross-thread coordination. The multiplier
// decorrelates the decision from shard selection (hash % shards).
constexpr bool latency_sample_hash(u64 flow_hash, std::size_t every) noexcept {
  if (every == 0) return false;
  if (every <= 1) return true;
  return ((flow_hash * 0x9E3779B97F4A7C15ull) >> 32) % every == 0;
}

// Stage histograms are the one HDR type, stats/histogram.hpp (16 linear
// sub-buckets per power of two, 640 buckets, lower bounds within 1/16).
// perfbench/ and nfp_cli read them under these latency names.
using HdrSnapshot = Histogram;
inline constexpr std::size_t kLatBuckets = Histogram::kBuckets;
inline u64 latency_bucket_value(std::size_t index) noexcept {
  return Histogram::value_of(index);
}

// One thread's recording block: written by exactly one thread with relaxed
// adds into its own cachelines, folded by scrape-side readers. Nothing
// shared is written on the hot path (the ScalabilityProfiler contract).
struct alignas(kCacheLineSize) StageLatencyBlock {
  void record(LatencyStage s, u64 ns) noexcept {
    Histogram& h = stages_[static_cast<std::size_t>(s)];
    std::atomic_ref(h.counts[Histogram::index_of(ns)])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref(h.total).fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref(h.sum).fetch_add(ns, std::memory_order_relaxed);
  }

  Histogram snapshot(LatencyStage s) const noexcept;

 private:
  // Touched only through std::atomic_ref, which needs a mutable referent
  // even to load.
  mutable std::array<Histogram, kLatencyStageCount> stages_{};
};

// Scrape-time aggregate for one shard: the stage histograms folded across
// the shard's threads, plus point-in-time queue occupancy (sampled
// SpscRing::size() sums) as the correlating queue-depth signal.
struct ShardLatencySnapshot {
  std::array<Histogram, kLatencyStageCount> stages{};
  double queue_depth = 0;        // packets resident in this shard's rings
  double ingest_queue_depth = 0; // director -> shard RX ring occupancy
  std::size_t sample_every = 0;  // the plane's 1-in-N rate (0 = off)

  const Histogram& stage(LatencyStage s) const noexcept {
    return stages[static_cast<std::size_t>(s)];
  }
  // Adds one thread's stage histograms.
  void add(const StageLatencyBlock& block) noexcept;
  ShardLatencySnapshot& operator+=(const ShardLatencySnapshot& other) noexcept;
};

// The folded report: per-shard and merged stage summaries in microseconds.
struct LatencyReport {
  struct Shard {
    std::string name;
    ShardLatencySnapshot d;  // delta since baseline
  };

  std::vector<Shard> shards;
  ShardLatencySnapshot total;
  double wall_seconds = 0;

  u64 sampled() const noexcept { return stage(LatencyStage::kTotal).count(); }
  const Histogram& stage(LatencyStage s) const noexcept {
    return total.stage(s);
  }

  std::string to_json() const;
  // Fixed-width stage table for terminals (p50/p90/p99/p99.9/max/mean).
  std::string to_text() const;
  // Native Prometheus histogram exposition for the stage histograms:
  // nfp_latency_ns_bucket{stage=...,shard=...,le=...} + _sum + _count.
  std::string to_prometheus() const;
};

struct LatencyObservatoryOptions {
  std::function<u64()> clock;  // ns; defaults to mono_now_ns
};

// Per-shard stage histograms as deltas since the baseline; queue depths
// and the sampling rate are point-in-time values. The sampling rate comes
// from the shards' snapshots, i.e. from the plane that samples.
class LatencyObservatory final
    : public ShardedObservatory<ShardLatencySnapshot, LatencyReport> {
 public:
  using Options = LatencyObservatoryOptions;

  explicit LatencyObservatory(Options options = {})
      : ShardedObservatory(std::move(options.clock)) {}

  // Publishes latency_<stage>_p99{shard=...} (plus latency_total_p50 /
  // latency_total_p999) and latency_queue_depth probes.
  void register_probes(TimeseriesCollector& collector);

 private:
  ShardLatencySnapshot delta(ShardLatencySnapshot now,
                             const ShardLatencySnapshot& base) const override;
};

}  // namespace nfp::telemetry
