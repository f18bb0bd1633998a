// Exporters over a MetricsRegistry snapshot.
//
//  * to_prometheus: Prometheus text exposition format (counters, gauges,
//    and native histograms through write_prometheus_histogram).
//  * to_json: machine-readable dump for benches and offline analysis.
//  * component_report: the human view — per-component utilization and
//    latency (classifier busy %, per-NF p50/p99 service time, merger
//    accumulating-table occupancy, pool high-water mark).
//
// The report reads the canonical metric names published by the dataplanes
// (see DESIGN.md "Observability"): core_busy_ns{component=...},
// nf_service_ns{nf=...}, packet_latency_ns, pool_in_use,
// merger_at_entries{merger=...} and the sim_now_ns gauge that anchors
// utilization percentages.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "stats/histogram.hpp"
#include "telemetry/registry.hpp"

namespace nfp::telemetry {

std::string to_prometheus(const MetricsRegistry& registry);
std::string to_json(const MetricsRegistry& registry);
std::string component_report(const MetricsRegistry& registry);

// Escapes a label value per the Prometheus text exposition format:
// backslash, double-quote and newline become \\, \" and \n. Shared by
// to_prometheus and the stats server's /metrics endpoint.
std::string prom_escape_label(std::string_view value);

// Appends `h` as a native Prometheus histogram: one cumulative
// `<name>_bucket` per power of two, from the first occupied one to the
// first that holds every sample, then `le="+Inf"`, `<name>_sum` and
// `<name>_count`. `labels` is the rendered label list without braces
// (`k="v",...`, may be empty); `le` goes last. Powers of two are bucket
// edges, so each count is exact, with one convention: a value equal to a
// boundary counts in the next bucket up. The top power of two gets no
// finite boundary, since values past the range clamp into it. The one
// histogram writer: /metrics and LatencyReport::to_prometheus both use it.
void write_prometheus_histogram(std::ostream& out, std::string_view name,
                                std::string_view labels, const Histogram& h);

// Renders a double the way Prometheus parses it: non-finite values as
// "NaN", "+Inf", "-Inf"; integral values without a fractional part.
std::string fmt_prom_double(double v);

}  // namespace nfp::telemetry
