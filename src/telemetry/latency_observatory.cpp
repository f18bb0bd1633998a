#include "telemetry/latency_observatory.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/timeseries.hpp"

namespace nfp::telemetry {

namespace {

constexpr std::array<const char*, kLatencyStageCount> kStageNames = {
    "ingest", "queue", "service", "merge_wait", "egress", "total",
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double to_us(u64 ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

const char* latency_stage_name(LatencyStage s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kStageNames.size() ? kStageNames[i] : "unknown";
}

Histogram StageLatencyBlock::snapshot(LatencyStage s) const noexcept {
  Histogram& h = stages_[static_cast<std::size_t>(s)];
  const auto load = [](u64& v) {
    return std::atomic_ref(v).load(std::memory_order_relaxed);
  };
  Histogram snap;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    snap.counts[i] = load(h.counts[i]);
  }
  snap.total = load(h.total);
  snap.sum = load(h.sum);
  return snap;
}

void ShardLatencySnapshot::add(const StageLatencyBlock& block) noexcept {
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    stages[i] += block.snapshot(static_cast<LatencyStage>(i));
  }
}

ShardLatencySnapshot& ShardLatencySnapshot::operator+=(
    const ShardLatencySnapshot& other) noexcept {
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    stages[i] += other.stages[i];
  }
  queue_depth += other.queue_depth;
  ingest_queue_depth += other.ingest_queue_depth;
  sample_every = std::max(sample_every, other.sample_every);
  return *this;
}

// ---------------------------------------------------------------------------
// Report rendering.

namespace {

void stage_json(std::ostringstream& out, const Histogram& h) {
  out << "{\"count\":" << h.count() << ",\"mean_us\":" << fmt_double(
             h.mean() / 1e3)
      << ",\"p50_us\":" << fmt_double(to_us(h.quantile(0.50)))
      << ",\"p90_us\":" << fmt_double(to_us(h.quantile(0.90)))
      << ",\"p99_us\":" << fmt_double(to_us(h.quantile(0.99)))
      << ",\"p999_us\":" << fmt_double(to_us(h.quantile(0.999)))
      << ",\"max_us\":" << fmt_double(to_us(h.max())) << "}";
}

void stages_json(std::ostringstream& out,
                 const std::array<Histogram, kLatencyStageCount>& stages) {
  out << "{";
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    if (i > 0) out << ",";
    out << "\"" << kStageNames[i] << "\":";
    stage_json(out, stages[i]);
  }
  out << "}";
}

}  // namespace

std::string LatencyReport::to_json() const {
  std::ostringstream out;
  out << "{\"sample_every\":" << total.sample_every
      << ",\"wall_seconds\":" << fmt_double(wall_seconds)
      << ",\"sampled\":" << sampled()
      << ",\"error_bound\":\"quantiles are HDR bucket lower bounds, "
         "relative error <= 1/" << Histogram::kSubBuckets
      << "\",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& sh = shards[s];
    if (s > 0) out << ",";
    out << "{\"name\":\"" << json::escape(sh.name) << "\",\"sampled\":"
        << sh.d.stage(LatencyStage::kTotal).count()
        << ",\"queue_depth\":" << fmt_double(sh.d.queue_depth)
        << ",\"ingest_queue_depth\":" << fmt_double(sh.d.ingest_queue_depth)
        << ",\"stages\":";
    stages_json(out, sh.d.stages);
    out << "}";
  }
  out << "],\"total\":{\"queue_depth\":" << fmt_double(total.queue_depth)
      << ",\"ingest_queue_depth\":" << fmt_double(total.ingest_queue_depth)
      << ",\"stages\":";
  stages_json(out, total.stages);
  out << "}}";
  return out.str();
}

std::string LatencyReport::to_text() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-10s %9s %9s %9s %9s %9s %9s %10s\n", "stage", "p50us",
                "p90us", "p99us", "p99.9us", "maxus", "meanus", "samples");
  out << line;
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    const Histogram& h = total.stages[i];
    std::snprintf(line, sizeof(line),
                  "%-10s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %10llu\n",
                  kStageNames[i], to_us(h.quantile(0.50)),
                  to_us(h.quantile(0.90)), to_us(h.quantile(0.99)),
                  to_us(h.quantile(0.999)), to_us(h.max()), h.mean() / 1e3,
                  static_cast<unsigned long long>(h.count()));
    out << line;
  }
  if (shards.size() > 1) {
    for (const Shard& sh : shards) {
      const Histogram& t = sh.d.stage(LatencyStage::kTotal);
      std::snprintf(line, sizeof(line),
                    "%-10s total p50=%.1fus p99=%.1fus p99.9=%.1fus "
                    "samples=%llu queue_depth=%.0f\n",
                    sh.name.c_str(), to_us(t.quantile(0.50)),
                    to_us(t.quantile(0.99)), to_us(t.quantile(0.999)),
                    static_cast<unsigned long long>(t.count()),
                    sh.d.queue_depth);
      out << line;
    }
  }
  return out.str();
}

std::string LatencyReport::to_prometheus() const {
  std::ostringstream out;
  out << "# TYPE nfp_latency_ns histogram\n";
  for (const Shard& sh : shards) {
    for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
      write_prometheus_histogram(out, "nfp_latency_ns",
                                 std::string("stage=\"") + kStageNames[i] +
                                     "\",shard=\"" +
                                     prom_escape_label(sh.name) + "\"",
                                 sh.d.stages[i]);
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Observatory.

ShardLatencySnapshot LatencyObservatory::delta(
    ShardLatencySnapshot now, const ShardLatencySnapshot& base) const {
  // Queue depths and the sampling rate are point-in-time values: no delta.
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    now.stages[i] = histogram_delta(now.stages[i], base.stages[i]);
  }
  return now;
}

void LatencyObservatory::register_probes(TimeseriesCollector& collector) {
  const std::vector<std::string> names = shard_names();
  for (std::size_t s = 0; s < names.size(); ++s) {
    const Labels labels{{"shard", names[s]}};
    const auto probe = [&](std::string name, auto read) {
      collector.add_probe(
          std::move(name), labels,
          shard_probe(s, [read](const LatencyReport::Shard& sh) {
            return read(sh.d);
          }));
    };
    const auto quantile_us = [](std::size_t stage, double q) {
      return [stage, q](const ShardLatencySnapshot& d) {
        return to_us(d.stages[stage].quantile(q));
      };
    };
    for (std::size_t b = 0; b < kLatencyStageCount; ++b) {
      probe(std::string("latency_") + kStageNames[b] + "_p99",
            quantile_us(b, 0.99));
    }
    const auto total = static_cast<std::size_t>(LatencyStage::kTotal);
    probe("latency_total_p50", quantile_us(total, 0.50));
    probe("latency_total_p999", quantile_us(total, 0.999));
    probe("latency_queue_depth",
          [](const ShardLatencySnapshot& d) { return d.queue_depth; });
    probe("latency_ingest_queue_depth",
          [](const ShardLatencySnapshot& d) { return d.ingest_queue_depth; });
  }
}

}  // namespace nfp::telemetry
