// The NFP infrastructure (paper §5) on simulated cores.
//
// One virtual core per component, exactly like the paper's deployment:
// a classifier core, one core per NF instance (the NF runtime shares the
// NF's core), a merger-agent core and one core per merger instance. The RX
// and TX links are modelled as resources whose occupancy is the wire
// serialization time, which caps throughput at line rate.
//
// All packet manipulation is real: the classifier tags real metadata,
// copies are real (header-only or full per the compiled plan), NFs execute
// their actual C++ implementations on the packet bytes, and the merger
// applies the compiled merge operations byte-by-byte. Only time is virtual.
//
// A dataplane hosts one or more service graphs; the classifier's
// Classification Table (§5.1) steers each flow into its graph and tags the
// packet with the graph's Match ID. MIDs are renumbered globally at
// construction so every segment of every graph has a unique MID.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "dataplane/merge_ops.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/packet_pool.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"

namespace nfp {

using NfFactory =
    std::function<std::unique_ptr<NetworkFunction>(const StageNf&)>;

struct DataplaneConfig {
  sim::CostModel costs;
  std::size_t merger_instances = 2;  // paper §6.3.3: two suffice to degree 5
  std::size_t pool_packets = 16384;
  // Optional custom NF instantiation (defaults to make_builtin_nf with the
  // instance id as seed). Used by benches to install pass-all ACLs or
  // DelayNf instances with specific cycle counts.
  NfFactory factory;
  u32 delaynf_cycles = 300;  // cycles for DelayNf cost accounting (Fig 9/11)
  // Per-packet tracing: record span events for every Nth packet (by PID);
  // 0 disables the tracer entirely. Retention is a ring of trace_capacity
  // events (oldest evicted first).
  u64 trace_every = 0;
  std::size_t trace_capacity = 8192;
};

struct DataplaneStats {
  u64 injected = 0;
  u64 delivered = 0;
  u64 dropped_by_nf = 0;     // packets an NF decided to drop
  u64 dropped_pool = 0;      // pool exhaustion (loss)
  u64 copies_header = 0;
  u64 copies_full = 0;
  u64 copy_bytes = 0;        // extra memory written for copies
  u64 merges = 0;
};

class NfpDataplane {
 public:
  using Sink = std::function<void(Packet*, SimTime out_time)>;

  // Single-graph deployment (the common case in tests and benches).
  NfpDataplane(sim::Simulator& sim, ServiceGraph graph,
               DataplaneConfig config = {});
  // Multi-graph deployment: flows map onto graphs through the
  // Classification Table; unmatched flows take graph 0.
  NfpDataplane(sim::Simulator& sim, std::vector<ServiceGraph> graphs,
               DataplaneConfig config = {});
  ~NfpDataplane();

  NfpDataplane(const NfpDataplane&) = delete;
  NfpDataplane& operator=(const NfpDataplane&) = delete;

  // Adds a Classification Table rule steering `flow` into `graph_index`.
  void add_flow_rule(const FiveTuple& flow, std::size_t graph_index);

  // Injects a packet at the current simulated time. The dataplane takes the
  // caller's reference. `inject_time` is stamped for latency accounting.
  void inject(Packet* pkt);

  // Called for every packet leaving a graph; the sink must release the
  // reference. Without a sink, packets are released on output.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  PacketPool& pool() noexcept { return *pool_; }
  const DataplaneStats& stats() const noexcept { return stats_; }

  // Always-on metrics (counters and latency histograms accumulate in the
  // hot path; call snapshot_metrics() first to refresh the point-in-time
  // gauges: core busy times, pool occupancy, sim clock).
  telemetry::MetricsRegistry& metrics() noexcept { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  void snapshot_metrics();

  // Non-null when config.trace_every > 0.
  telemetry::Tracer* tracer() noexcept { return tracer_.get(); }

  // Always-on anomaly event ring (pool exhaustion, drop resolutions).
  telemetry::FlightRecorder& flight_recorder() noexcept { return flight_; }
  // Post-mortem report: recent flight events + a fresh registry snapshot.
  std::string post_mortem(std::string_view reason = {});

  const ServiceGraph& graph(std::size_t g = 0) const noexcept {
    return graphs_[g].graph;
  }
  std::size_t graph_count() const noexcept { return graphs_.size(); }

  // NF instance access for state inspection in tests (graph 0).
  NetworkFunction* nf(std::size_t segment, std::size_t index) {
    return nf_in(0, segment, index);
  }
  NetworkFunction* nf_in(std::size_t graph_index, std::size_t segment,
                         std::size_t index);

  // Busy time of the named component cores (utilization accounting).
  SimTime classifier_busy_ns() const { return classifier_core_.busy_time(); }
  SimTime merger_busy_ns(std::size_t instance) const {
    return merger_cores_[instance].busy_time();
  }

 private:
  struct NfInstance {
    StageNf meta;
    std::unique_ptr<NetworkFunction> impl;
    sim::SimCore core;
    sim::FifoChannel out;  // hand-offs leave this NF in FIFO order
    std::string component;          // "nf:<type>#<instance>" label
    Histogram* service = nullptr;   // per-packet time spent at this NF
  };

  struct GraphRuntime {
    ServiceGraph graph;
    std::vector<std::vector<NfInstance>> segments;  // [segment][nf]
  };

  struct MergeItem {
    MergeArrival arrival;
    // Which NF instance produced this arrival (stable component label owned
    // by the NfInstance); merger-arrival spans carry it so the profiler can
    // pair each branch's arrival with its nf-enter/nf-exit.
    const std::string* sender = nullptr;
  };

  struct MergeState {
    std::vector<MergeArrival> arrivals;
  };

  // (graph, segment, pid) key into a merger instance's accumulating table.
  using AtKey = std::tuple<std::size_t, std::size_t, u64>;

  void classify(Packet* pkt);
  // Executes a segment's entry actions (copies + distribution) on
  // `entry_core`, which may start at `t`; `carry_delay` is latency carried
  // from the previous step that applies to the hand-off into the NFs.
  void enter_segment(std::size_t g, std::size_t seg_idx, Packet* pkt,
                     SimTime t, sim::SimCore* entry_core, SimTime carry_delay,
                     sim::FifoChannel* channel);
  void run_nf(std::size_t g, std::size_t seg_idx, std::size_t nf_idx,
              Packet* pkt, SimTime ready);
  void to_merger(std::size_t g, std::size_t seg_idx, MergeItem item,
                 SimTime t);
  void merger_arrival(std::size_t g, std::size_t seg_idx,
                      std::size_t instance, MergeItem item, SimTime t);
  void complete_merge(std::size_t g, std::size_t seg_idx,
                      std::size_t instance, MergeState state, SimTime t);
  void leave_segment(std::size_t g, std::size_t seg_idx, Packet* pkt,
                     SimTime t, sim::SimCore* core, SimTime carry_delay,
                     sim::FifoChannel* channel);
  void output(Packet* pkt, SimTime t);
  // Resolves the hot-path metric handles against metrics_ (constructor).
  void bind_metrics();
  // Tracer helper: records a span only for sampled packets.
  void trace(u64 pid, telemetry::SpanKind kind, SimTime at,
             const char* component, u8 version = 1);

  sim::Simulator& sim_;
  DataplaneConfig config_;
  std::unique_ptr<PacketPool> pool_;
  Sink sink_;
  DataplaneStats stats_;

  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  telemetry::FlightRecorder flight_;
  // Hot-path metric handles (stable pointers into metrics_).
  telemetry::Counter* m_injected_ = nullptr;
  telemetry::Counter* m_delivered_ = nullptr;
  telemetry::Counter* m_dropped_nf_ = nullptr;
  telemetry::Counter* m_dropped_pool_ = nullptr;
  telemetry::Counter* m_copies_header_ = nullptr;
  telemetry::Counter* m_copies_full_ = nullptr;
  telemetry::Counter* m_copy_bytes_ = nullptr;
  telemetry::Counter* m_merges_ = nullptr;
  Histogram* m_latency_ = nullptr;
  telemetry::Gauge* m_pool_in_use_ = nullptr;
  std::vector<telemetry::Gauge*> m_at_entries_;

  sim::SimCore rx_link_;
  sim::SimCore tx_link_;
  sim::SimCore classifier_core_;
  sim::FifoChannel classifier_out_;
  sim::SimCore agent_core_;
  std::vector<sim::SimCore> merger_cores_;
  std::vector<sim::FifoChannel> merger_out_;
  std::vector<GraphRuntime> graphs_;

  // Classification Table: exact 5-tuple match -> graph index (§5.1).
  std::unordered_map<FiveTuple, std::size_t, FiveTupleHash> ct_;

  // Accumulating tables, one per merger instance (§5.3).
  std::vector<std::map<AtKey, MergeState>> at_;

  u64 next_pid_ = 0;
  bool warned_pool_exhausted_ = false;
};

}  // namespace nfp
