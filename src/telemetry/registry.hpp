// Metrics registry: named counters, gauges and latency histograms with
// labels (graph, segment, NF type, merger instance, plane).
//
// The paper evaluates NFP purely from the outside (end-to-end latency and
// throughput, §6); this registry is the inside view. Design constraints:
//
//  * Always-on in the simulated hot path. Components resolve a metric once
//    (a map lookup at construction) and keep the returned pointer; the
//    per-packet cost is then a single increment / histogram record. The
//    returned pointers are stable: metrics live in node-based maps and the
//    registry never erases.
//  * Mergeable. Counters add, histograms merge bucket-wise, gauges keep the
//    max of their high-water marks — so per-component registries (NFP
//    dataplane, baselines, traffic generator) can be combined into one
//    export for apples-to-apples comparison.
//  * Exportable. Exporters (exporters.hpp) iterate the maps and render
//    Prometheus text, JSON, or the human per-component report.
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "stats/histogram.hpp"

namespace nfp::telemetry {

// Label set, kept sorted by key so that {a=1,b=2} and {b=2,a=1} name the
// same time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Tear-free metric cell: a relaxed atomic with value semantics, so
// registries stay copyable/mergeable while live-pipeline workers, the
// health sampler and the stats-server / timeseries threads read and write
// concurrently. Relaxed ordering is sufficient — each cell is an
// independent statistic, not a synchronization point. Structural registry
// mutation (creating new series) is still single-threaded; only the cell
// values are cross-thread.
template <typename T>
class Cell {
 public:
  Cell() noexcept = default;
  Cell(T v) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)
  Cell(const Cell& other) noexcept : v_(other.load()) {}
  Cell& operator=(const Cell& other) noexcept {
    store(other.load());
    return *this;
  }
  Cell& operator=(T v) noexcept {
    store(v);
    return *this;
  }
  T load() const noexcept { return v_.load(std::memory_order_relaxed); }
  void store(T v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(T v) noexcept { v_.fetch_add(v, std::memory_order_relaxed); }
  operator T() const noexcept { return load(); }  // NOLINT

 private:
  std::atomic<T> v_{};
};

// Monotone event count.
struct Counter {
  Cell<u64> value;
  void inc(u64 n = 1) noexcept { value.add(n); }
};

// Point-in-time value with a high-water mark (e.g. packet-pool occupancy,
// merger accumulating-table size). `set` is the hot-path call. Writers are
// single-threaded per gauge (the owning component or the sampler thread);
// the atomic cells make concurrent *reads* from exporter/server threads
// tear-free.
struct Gauge {
  Cell<double> value;
  Cell<double> high_water;
  void set(double v) noexcept {
    value.store(v);
    if (v > high_water.load()) high_water.store(v);
  }
};

struct MetricKey {
  std::string name;
  Labels labels;

  friend bool operator<(const MetricKey& a, const MetricKey& b) noexcept {
    return a.name != b.name ? a.name < b.name : a.labels < b.labels;
  }
  friend bool operator==(const MetricKey& a, const MetricKey& b) = default;
};

class MetricsRegistry {
 public:
  // Lookup-or-create. The same (name, labels) pair always returns the same
  // object; labels are normalized (sorted by key) before lookup.
  Counter& counter(std::string name, Labels labels = {}) {
    return counters_[key(std::move(name), std::move(labels))];
  }
  Gauge& gauge(std::string name, Labels labels = {}) {
    return gauges_[key(std::move(name), std::move(labels))];
  }
  Histogram& histogram(std::string name, Labels labels = {}) {
    return histograms_[key(std::move(name), std::move(labels))];
  }

  // Combines `other` into this registry: counters add, histograms merge,
  // gauges keep the larger value and high-water mark. Series present only
  // in `other` are created.
  void merge(const MetricsRegistry& other) {
    for (const auto& [k, c] : other.counters_) {
      counters_[k].value.add(c.value.load());
    }
    for (const auto& [k, g] : other.gauges_) {
      Gauge& mine = gauges_[k];
      mine.value.store(std::max(mine.value.load(), g.value.load()));
      mine.high_water.store(
          std::max(mine.high_water.load(), g.high_water.load()));
    }
    for (const auto& [k, h] : other.histograms_) histograms_[k] += h;
  }

  const std::map<MetricKey, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<MetricKey, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<MetricKey, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  std::size_t series_count() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  static MetricKey key(std::string name, Labels labels) {
    std::sort(labels.begin(), labels.end());
    return MetricKey{std::move(name), std::move(labels)};
  }

  std::map<MetricKey, Counter> counters_;
  std::map<MetricKey, Gauge> gauges_;
  std::map<MetricKey, Histogram> histograms_;
};

}  // namespace nfp::telemetry
