// One lifecycle for the live plane's per-shard observatories.
//
// The scalability profiler, the latency observatory and the flow
// observatory share one shape. Dataplane threads write per-thread blocks
// that nothing else writes; each shard registers a callback that folds its
// blocks into a plain snapshot; add_shard captures a baseline; report()
// subtracts the baseline shard by shard, sums the deltas into a total and
// lets the observatory derive its figures. This class owns that shape: the
// sources, baselines, mutex, clock, report loop and the timeseries probe
// cache. An observatory supplies its snapshot type, its delta and its
// derived figures through the virtual hooks.
//
// Type contract:
//   Snapshot  a value type with `Snapshot& operator+=(const Snapshot&)`;
//   Report    `struct Shard { std::string name; Snapshot d; ... }`,
//             `std::vector<Shard> shards`, `Snapshot total`,
//             `double wall_seconds` and `std::string to_json() const`.
//
// Thread safety: add_shard, shard_count, reset_baseline and report
// serialize on an internal mutex, and the snapshot callbacks and hooks run
// under it. The probe cache belongs to the collector thread that samples
// the probes.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp::telemetry {

template <typename Snapshot, typename Report>
class ShardedObservatory {
 public:
  using SnapshotFn = std::function<Snapshot()>;

  ShardedObservatory(const ShardedObservatory&) = delete;
  ShardedObservatory& operator=(const ShardedObservatory&) = delete;
  virtual ~ShardedObservatory() = default;

  // Registers a shard; its current snapshot becomes its baseline.
  void add_shard(std::string name, SnapshotFn fn) {
    if (!fn) return;
    const std::scoped_lock lock(mu_);
    Snapshot baseline = fn();
    sources_.push_back({std::move(name), std::move(fn), std::move(baseline)});
  }

  std::size_t shard_count() const {
    const std::scoped_lock lock(mu_);
    return sources_.size();
  }

  // Re-zeroes the report: later deltas are relative to the counters and
  // the clock now. Call after start() so thread spawn and warm-up are
  // excluded.
  void reset_baseline() {
    const std::scoped_lock lock(mu_);
    for (Source& src : sources_) src.baseline = src.fn();
    baseline_ns_ = clock_();
    on_reset_baseline();
  }

  Report report() const {
    const std::scoped_lock lock(mu_);
    Report rep;
    const u64 now = clock_();
    rep.wall_seconds =
        static_cast<double>(now >= baseline_ns_ ? now - baseline_ns_ : 0) /
        1e9;
    for (const Source& src : sources_) {
      typename Report::Shard sh;
      sh.name = src.name;
      sh.d = delta(src.fn(), src.baseline);
      rep.total += sh.d;
      rep.shards.push_back(std::move(sh));
    }
    finish(rep);
    return rep;
  }

  std::string to_json() const { return report().to_json(); }

 protected:
  explicit ShardedObservatory(std::function<u64()> clock)
      : clock_(clock ? std::move(clock) : [] { return mono_now_ns(); }),
        baseline_ns_(clock_()) {}

  // One shard's report section: `now` less `base`. Counters saturate at
  // zero, since a baseline may outlive a counter that restarted.
  virtual Snapshot delta(Snapshot now, const Snapshot& base) const = 0;
  // Derives the report's remaining figures once every shard is in.
  virtual void finish(Report& /*rep*/) const {}
  // Moves a baseline the snapshots do not carry (hardware counters).
  virtual void on_reset_baseline() {}
  // Sees each report the probe cache takes, with the clock reading.
  virtual void on_probe_refresh(const Report& /*rep*/, u64 /*now_ns*/) {}

  // The clock reading of the last baseline; for hooks, under the mutex.
  u64 baseline_ns() const { return baseline_ns_; }

  std::vector<std::string> shard_names() const {
    const std::scoped_lock lock(mu_);
    std::vector<std::string> names;
    for (const Source& src : sources_) names.push_back(src.name);
    return names;
  }

  // The report the timeseries probes read. One collector tick samples
  // many probes; the first one in a 200 ms window folds the shards and the
  // rest read its result. The probes capture `this`, so the observatory
  // must outlive every collector tick that samples them.
  const Report& probe_report() {
    const u64 now = clock_();
    if (probe_.stamp_ns == 0 || now > probe_.stamp_ns + kProbeRefreshNs) {
      probe_.report = report();
      on_probe_refresh(probe_.report, now);
      probe_.stamp_ns = now;
    }
    return probe_.report;
  }

  // A probe reading shard `s` of the cached report; 0 once it is gone.
  template <typename Read>
  std::function<double()> shard_probe(std::size_t s, Read read) {
    return [this, s, read] {
      const Report& rep = probe_report();
      return s < rep.shards.size() ? read(rep.shards[s]) : 0.0;
    };
  }

 private:
  static constexpr u64 kProbeRefreshNs = 200ull * 1000 * 1000;

  struct Source {
    std::string name;
    SnapshotFn fn;
    Snapshot baseline;
  };
  struct ProbeCache {
    Report report;
    u64 stamp_ns = 0;
  };

  mutable std::mutex mu_;
  std::function<u64()> clock_;
  std::vector<Source> sources_;
  u64 baseline_ns_;
  ProbeCache probe_;
};

}  // namespace nfp::telemetry
