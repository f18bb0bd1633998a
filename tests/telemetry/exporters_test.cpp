// Golden-output tests for the Prometheus / JSON exporters and the
// per-component report.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scalability_profiler.hpp"

namespace nfp::telemetry {
namespace {

MetricsRegistry small_registry() {
  MetricsRegistry reg;
  reg.counter("packets_injected_total", {{"plane", "nfp"}}).inc(100);
  reg.counter("packets_dropped_total", {{"plane", "nfp"}, {"reason", "nf"}})
      .inc(2);
  reg.gauge("pool_in_use", {{"plane", "nfp"}}).set(7);
  Histogram& h = reg.histogram("packet_latency_ns", {{"plane", "nfp"}});
  for (u64 v = 1; v <= 10; ++v) h.record(v);
  return reg;
}

TEST(ExportersTest, PrometheusGolden) {
  const std::string text = to_prometheus(small_registry());
  EXPECT_NE(text.find("# TYPE packets_injected_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("packets_injected_total{plane=\"nfp\"} 100"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "packets_dropped_total{plane=\"nfp\",reason=\"nf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_in_use gauge"), std::string::npos);
  EXPECT_NE(text.find("pool_in_use{plane=\"nfp\"} 7"), std::string::npos);
  // Histograms expose as native Prometheus histogram series: cumulative
  // le-buckets at power-of-two boundaries (exact bucket edges), then the
  // mandatory +Inf bucket, _sum and _count.
  EXPECT_NE(text.find("# TYPE packet_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("packet_latency_ns_bucket{plane=\"nfp\",le=\"16\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("packet_latency_ns_bucket{plane=\"nfp\",le=\"+Inf\"} 10"),
      std::string::npos);
  EXPECT_NE(text.find("packet_latency_ns_count{plane=\"nfp\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("packet_latency_ns_sum{plane=\"nfp\"} 55"),
            std::string::npos);
}

TEST(ExportersTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("spread_ns", {});
  h.record(3);     // below the first le=16 edge
  h.record(40);    // in [32, 64)
  h.record(40);
  h.record(1024);  // exactly on a boundary: le is exclusive, lands above
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"16\"} 1"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"64\"} 3"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"1024\"} 3"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"2048\"} 4"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_count 4"), std::string::npos);
}

TEST(ExportersTest, JsonGolden) {
  const std::string json = to_json(small_registry());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"packets_injected_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"plane\":\"nfp\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":100"), std::string::npos);
  EXPECT_NE(json.find("\"high_water\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":5"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":10"), std::string::npos);
}

TEST(ExportersTest, JsonEscapesStrings) {
  MetricsRegistry reg;
  reg.counter("weird", {{"label", "a\"b\\c"}}).inc();
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(ExportersTest, ControlCharactersStayValidJson) {
  // \r and other bytes below 0x20 must be escaped, or JSON readers
  // (json::Value::parse among them) reject the whole document.
  const std::string name = "shard\r\x01";
  const auto parses = [](const std::string& text) {
    const auto doc = json::Value::parse(text);
    EXPECT_TRUE(doc.is_ok()) << doc.error() << " in " << text;
  };

  MetricsRegistry reg;
  reg.counter("weird", {{"label", name}}).inc();
  reg.histogram("weird_ns", {{"label", name}}).record(5);
  parses(to_json(reg));

  ScalabilityProfilerOptions popt;
  popt.enable_hw = false;
  ScalabilityProfiler prof(popt);
  prof.add_shard(name, [] { return ShardScalabilitySnapshot{}; });
  parses(prof.to_json());

  LatencyObservatory lat;
  lat.add_shard(name, [] { return ShardLatencySnapshot{}; });
  parses(lat.to_json());

  FlowObservatory flows;
  flows.add_shard(name, [] { return ShardFlowSnapshot{}; });
  parses(flows.to_json());
}

// The `le="..."} N` tail of every `<name>_bucket` line, in order, then the
// `_sum` and `_count` values.
std::vector<std::string> histogram_series(const std::string& text,
                                          const std::string& name) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(name + "_bucket{", 0) == 0) {
      out.push_back(line.substr(line.find("le=")));
    } else if (line.rfind(name + "_sum", 0) == 0 ||
               line.rfind(name + "_count", 0) == 0) {
      const std::size_t suffix_end = line.find_first_of("{ ");
      out.push_back(line.substr(name.size(), suffix_end - name.size()) +
                    line.substr(line.rfind(' ')));
    }
  }
  return out;
}

TEST(ExportersTest, OneHistogramWriterForRegistryAndLatency) {
  const std::vector<std::vector<u64>> cases = {
      {},                                       // empty: +Inf, sum, count
      {1, 5, 17, 300, 4'096, 1'000'000},
      {7, u64{1} << 43, (u64{1} << 50) + 3},   // past the top bucket
  };
  for (const std::vector<u64>& samples : cases) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("nfp_latency_ns", {{"shard", "s0"}});
    StageLatencyBlock block;
    for (const u64 v : samples) {
      h.record(v);
      block.record(LatencyStage::kTotal, v);
    }
    LatencyReport rep;
    rep.shards.push_back({"s0", {}});
    rep.shards[0].d.stages[static_cast<std::size_t>(LatencyStage::kTotal)] =
        block.snapshot(LatencyStage::kTotal);

    const std::string total_only = [&] {
      std::string out;
      std::istringstream lines(rep.to_prometheus());
      for (std::string line; std::getline(lines, line);) {
        if (line.find("stage=\"total\"") != std::string::npos) {
          out += line + "\n";
        }
      }
      return out;
    }();
    const std::vector<std::string> from_registry =
        histogram_series(to_prometheus(reg), "nfp_latency_ns");
    EXPECT_EQ(from_registry,
              histogram_series(total_only, "nfp_latency_ns"));
    ASSERT_GE(from_registry.size(), 3u);
    const std::string n = std::to_string(samples.size());
    EXPECT_EQ(from_registry[from_registry.size() - 3], "le=\"+Inf\"} " + n);
    EXPECT_EQ(from_registry.back(), "_count " + n);
  }

  // A value at or past 2^43 ns has no finite boundary above it: only +Inf
  // counts it.
  MetricsRegistry reg;
  reg.histogram("top_ns", {}).record(u64{1} << 43);
  EXPECT_EQ(histogram_series(to_prometheus(reg), "top_ns"),
            (std::vector<std::string>{"le=\"+Inf\"} 1",
                                      "_sum 8796093022208", "_count 1"}));
}

TEST(ExportersTest, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("weird", {{"label", "a\\b\"c\nd"}}).inc(3);
  const std::string text = to_prometheus(reg);
  // Exposition format: backslash, double-quote, newline in label values
  // must come out as \\ , \" and \n — one line per series, always.
  EXPECT_NE(text.find("weird{label=\"a\\\\b\\\"c\\nd\"} 3"),
            std::string::npos);
}

TEST(ExportersTest, PromEscapeLabelCoversAllThreeEscapes) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

TEST(ExportersTest, FmtPromDoubleSpellsNonFiniteValues) {
  EXPECT_EQ(fmt_prom_double(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(fmt_prom_double(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(fmt_prom_double(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(fmt_prom_double(5.0), "5");
  EXPECT_EQ(fmt_prom_double(2.5), "2.5");
}

TEST(ExportersTest, PrometheusRendersNonFiniteGauges) {
  MetricsRegistry reg;
  reg.gauge("ratio", {}).value.store(
      std::numeric_limits<double>::quiet_NaN());
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("ratio NaN"), std::string::npos);
}

TEST(ExportersTest, ComponentReportShowsUtilizationAndLatency) {
  MetricsRegistry reg = small_registry();
  reg.gauge("sim_now_ns", {{"plane", "nfp"}}).set(1'000'000);
  reg.gauge("core_busy_ns",
            {{"plane", "nfp"}, {"component", "classifier"}})
      .set(250'000);
  reg.gauge("core_busy_ns",
            {{"plane", "nfp"}, {"component", "nf:firewall#0"}})
      .set(500'000);
  Histogram& service = reg.histogram(
      "nf_service_ns", {{"plane", "nfp"}, {"nf", "nf:firewall#0"}});
  for (int i = 0; i < 100; ++i) service.record(120);
  reg.gauge("pool_capacity", {{"plane", "nfp"}}).set(1024);

  const std::string report = component_report(reg);
  EXPECT_NE(report.find("plane=nfp"), std::string::npos);
  EXPECT_NE(report.find("classifier"), std::string::npos);
  EXPECT_NE(report.find("25.0%"), std::string::npos);  // 250k / 1M
  EXPECT_NE(report.find("50.0%"), std::string::npos);  // firewall busy
  EXPECT_NE(report.find("120"), std::string::npos);    // p50 service
  EXPECT_NE(report.find("injected=100"), std::string::npos);
  EXPECT_NE(report.find("pool: high-water 7 / 1024"), std::string::npos);
}

TEST(ExportersTest, ComponentReportMergesPlanesSideBySide) {
  MetricsRegistry nfp = small_registry();
  nfp.gauge("sim_now_ns", {{"plane", "nfp"}}).set(1'000);
  MetricsRegistry onv;
  onv.counter("packets_injected_total", {{"plane", "onv"}}).inc(50);
  onv.gauge("sim_now_ns", {{"plane", "onv"}}).set(2'000);
  nfp.merge(onv);
  const std::string report = component_report(nfp);
  EXPECT_NE(report.find("plane=nfp"), std::string::npos);
  EXPECT_NE(report.find("plane=onv"), std::string::npos);
  EXPECT_NE(report.find("injected=50"), std::string::npos);
}

}  // namespace
}  // namespace nfp::telemetry
