#include "dataplane/nfp_dataplane.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.hpp"
#include "dataplane/merge_ops.hpp"
#include "packet/packet_view.hpp"

namespace nfp {

namespace {

std::unique_ptr<NetworkFunction> default_factory(const StageNf& nf) {
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
}

constexpr char kPlane[] = "nfp";

}  // namespace

NfpDataplane::NfpDataplane(sim::Simulator& sim, ServiceGraph graph,
                           DataplaneConfig config)
    : NfpDataplane(sim,
                   [&] {
                     std::vector<ServiceGraph> graphs;
                     graphs.push_back(std::move(graph));
                     return graphs;
                   }(),
                   std::move(config)) {}

NfpDataplane::NfpDataplane(sim::Simulator& sim,
                           std::vector<ServiceGraph> graphs,
                           DataplaneConfig config)
    : sim_(sim),
      config_(std::move(config)),
      pool_(std::make_unique<PacketPool>(config_.pool_packets)),
      merger_cores_(config_.merger_instances),
      merger_out_(config_.merger_instances),
      at_(config_.merger_instances) {
  assert(!graphs.empty());
  const NfFactory& factory =
      config_.factory ? config_.factory : NfFactory(default_factory);

  u32 next_mid = 0;
  int next_instance = 0;
  for (ServiceGraph& graph : graphs) {
    GraphRuntime runtime;
    runtime.graph = std::move(graph);
    for (Segment& seg : runtime.graph.segments()) {
      seg.mid = next_mid++ & Metadata::kMaxMid;  // globally unique MIDs
      std::vector<NfInstance> instances;
      for (StageNf& nf : seg.nfs) {
        nf.instance_id = next_instance++;
        NfInstance inst;
        inst.meta = nf;
        inst.impl = factory(nf);
        if (inst.impl == nullptr) {
          // Unknown NF type: fall back to a pass-through monitor so the
          // graph still runs; cost accounting uses the type name regardless.
          log_warn("no implementation for NF type '", nf.name,
                   "'; using monitor as a stand-in");
          inst.impl = make_builtin_nf("monitor");
        }
        instances.push_back(std::move(inst));
      }
      runtime.segments.push_back(std::move(instances));
    }
    graphs_.push_back(std::move(runtime));
  }

  if (config_.trace_every > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(config_.trace_every,
                                                  config_.trace_capacity);
  }
  bind_metrics();
}

void NfpDataplane::bind_metrics() {
  const telemetry::Labels plane{{"plane", kPlane}};
  m_injected_ = &metrics_.counter("packets_injected_total", plane);
  m_delivered_ = &metrics_.counter("packets_delivered_total", plane);
  m_dropped_nf_ = &metrics_.counter("packets_dropped_total",
                                    {{"plane", kPlane}, {"reason", "nf"}});
  m_dropped_pool_ = &metrics_.counter("packets_dropped_total",
                                      {{"plane", kPlane}, {"reason", "pool"}});
  m_copies_header_ =
      &metrics_.counter("copies_total", {{"plane", kPlane}, {"kind", "header"}});
  m_copies_full_ =
      &metrics_.counter("copies_total", {{"plane", kPlane}, {"kind", "full"}});
  m_copy_bytes_ = &metrics_.counter("copy_bytes_total", plane);
  m_merges_ = &metrics_.counter("merges_total", plane);
  m_latency_ = &metrics_.histogram("packet_latency_ns", plane);
  m_pool_in_use_ = &metrics_.gauge("pool_in_use", plane);
  metrics_.gauge("pool_capacity", plane)
      .set(static_cast<double>(pool_->capacity()));
  for (std::size_t i = 0; i < merger_cores_.size(); ++i) {
    m_at_entries_.push_back(&metrics_.gauge(
        "merger_at_entries",
        {{"plane", kPlane}, {"merger", std::to_string(i)}}));
  }
  for (std::size_t g = 0; g < graphs_.size(); ++g) {
    GraphRuntime& runtime = graphs_[g];
    for (std::size_t s = 0; s < runtime.segments.size(); ++s) {
      for (NfInstance& inst : runtime.segments[s]) {
        inst.component =
            "nf:" + inst.meta.name + "#" + std::to_string(inst.meta.instance_id);
        inst.service = &metrics_.histogram(
            "nf_service_ns", {{"plane", kPlane},
                              {"graph", std::to_string(g)},
                              {"segment", std::to_string(s)},
                              {"nf", inst.component}});
      }
    }
  }
}

void NfpDataplane::snapshot_metrics() {
  const auto busy = [this](const std::string& component, SimTime ns) {
    metrics_
        .gauge("core_busy_ns",
               {{"plane", kPlane}, {"component", component}})
        .set(static_cast<double>(ns));
  };
  metrics_.gauge("sim_now_ns", {{"plane", kPlane}})
      .set(static_cast<double>(sim_.now()));
  busy("classifier", classifier_core_.busy_time());
  busy("merger-agent", agent_core_.busy_time());
  busy("rx-link", rx_link_.busy_time());
  busy("tx-link", tx_link_.busy_time());
  for (std::size_t i = 0; i < merger_cores_.size(); ++i) {
    busy("merger#" + std::to_string(i), merger_cores_[i].busy_time());
  }
  for (GraphRuntime& runtime : graphs_) {
    for (auto& segment : runtime.segments) {
      for (NfInstance& inst : segment) {
        busy(inst.component, inst.core.busy_time());
      }
    }
  }
  m_pool_in_use_->set(static_cast<double>(pool_->in_use()));
}

std::string NfpDataplane::post_mortem(std::string_view reason) {
  snapshot_metrics();  // gauges are point-in-time; refresh before dumping
  return flight_.dump(&metrics_, reason);
}

void NfpDataplane::trace(u64 pid, telemetry::SpanKind kind, SimTime at,
                         const char* component, u8 version) {
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    tracer_->record(pid, kind, at, component, version);
  }
}

NfpDataplane::~NfpDataplane() = default;

NetworkFunction* NfpDataplane::nf_in(std::size_t graph_index,
                                     std::size_t segment, std::size_t index) {
  return graphs_.at(graph_index).segments.at(segment).at(index).impl.get();
}

void NfpDataplane::add_flow_rule(const FiveTuple& flow,
                                 std::size_t graph_index) {
  assert(graph_index < graphs_.size());
  ct_[flow] = graph_index;
}

void NfpDataplane::inject(Packet* pkt) {
  ++stats_.injected;
  m_injected_->inc();
  m_pool_in_use_->set(static_cast<double>(pool_->in_use()));
  pkt->set_inject_time(sim_.now());
  // The PID is assigned at ingress so the inject span (the packet's e2e
  // anchor for critical-path attribution) can be recorded.
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  trace(pkt->meta().pid(), telemetry::SpanKind::kInject, sim_.now(),
        "rx-link");
  // RX link: wire serialization occupies the link; NIC/driver adds delay.
  const SimTime link_free =
      rx_link_.execute(sim_.now(), config_.costs.wire_ns(pkt->length()));
  sim_.schedule_at(link_free + config_.costs.nic_delay_ns,
                   [this, pkt] { classify(pkt); });
}

void NfpDataplane::classify(Packet* pkt) {
  const SimTime free =
      classifier_core_.execute(sim_.now(), config_.costs.classifier.occ);
  pkt->meta().set_version(1);
  trace(pkt->meta().pid(), telemetry::SpanKind::kClassify, free, "classifier");

  // Classification Table lookup (§5.1): exact flow match, default graph 0.
  std::size_t g = 0;
  if (!ct_.empty()) {
    PacketView view(*pkt);
    if (view.valid()) {
      const auto it = ct_.find(view.five_tuple());
      if (it != ct_.end()) g = it->second;
    }
  }
  enter_segment(g, 0, pkt, free, &classifier_core_,
                config_.costs.classifier.delay, &classifier_out_);
}

// `t` is when the entry core can start the segment's entry actions;
// `carry_delay` is packet latency accumulated on this core that applies to
// the hand-off into the segment's NFs.
void NfpDataplane::enter_segment(std::size_t g, std::size_t seg_idx,
                                 Packet* pkt, SimTime t,
                                 sim::SimCore* entry_core,
                                 SimTime carry_delay,
                                 sim::FifoChannel* channel) {
  GraphRuntime& runtime = graphs_[g];
  const Segment& seg = runtime.graph.segments()[seg_idx];
  auto& instances = runtime.segments[seg_idx];
  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);

  if (!seg.is_parallel()) {
    const SimTime free =
        entry_core->execute(t, config_.costs.ring_enqueue.occ);
    const SimTime handoff = channel->stamp(
        free + carry_delay + config_.costs.ring_enqueue.delay);
    sim_.schedule_at(handoff, [this, g, seg_idx, pkt, handoff] {
      run_nf(g, seg_idx, 0, pkt, handoff);
    });
    return;
  }

  // Create the packet copies for versions 2..num_versions on the entry core
  // (paper §5.2 `copy` action; memory comes from the pre-allocated pool).
  std::vector<Packet*> version_pkt(
      static_cast<std::size_t>(seg.num_versions) + 1, nullptr);
  version_pkt[1] = pkt;
  SimTime free = t;
  SimTime copy_delay = 0;
  for (u8 v = 2; v <= seg.num_versions; ++v) {
    const bool full = seg.version_needs_full_copy(v);
    Packet* copy =
        full ? pool_->clone_full(*pkt) : pool_->clone_header_only(*pkt);
    if (copy == nullptr) {
      ++stats_.dropped_pool;
      m_dropped_pool_->inc();
      if (!warned_pool_exhausted_) {
        warned_pool_exhausted_ = true;
        log_warn("packet pool exhausted (", pool_->capacity(),
                 " packets); dropping packet and its copies — further "
                 "exhaustion drops are counted silently");
      }
      flight_.note(telemetry::Severity::kCritical, sim_.now(), "pool",
                   "exhausted at " + std::to_string(pool_->capacity()) +
                       " packets; copy dropped (total pool drops: " +
                       std::to_string(stats_.dropped_pool) + ")");
      trace(pkt->meta().pid(), telemetry::SpanKind::kDrop, sim_.now(), "pool");
      for (u8 w = 2; w < v; ++w) pool_->release(version_pkt[w]);
      pool_->release(pkt);
      return;
    }
    copy->meta().set_version(v);
    version_pkt[v] = copy;
    SimTime occ = config_.costs.copy_header.occ;
    if (full) {
      ++stats_.copies_full;
      m_copies_full_->inc();
      occ += static_cast<SimTime>(config_.costs.copy_full_per_byte_occ *
                                  static_cast<double>(copy->length()));
    } else {
      ++stats_.copies_header;
      m_copies_header_->inc();
    }
    stats_.copy_bytes += copy->length();
    m_copy_bytes_->inc(copy->length());
    free = entry_core->execute(free, occ);
    copy_delay += config_.costs.copy_header.delay;
    // Stamped at free + carry_delay so copy spans never sort before the
    // upstream nf-exit span (which includes its carried latency).
    trace(pkt->meta().pid(), telemetry::SpanKind::kCopy, free + carry_delay,
          full ? "copy-full" : "copy-header", v);
  }
  m_pool_in_use_->set(static_cast<double>(pool_->in_use()));

  // Reference counting: each version is consumed by every NF on it.
  for (u8 v = 1; v <= seg.num_versions; ++v) {
    const auto consumers = static_cast<std::size_t>(std::count_if(
        seg.nfs.begin(), seg.nfs.end(),
        [v](const StageNf& nf) { return nf.version == v; }));
    if (consumers == 0) {
      if (v > 1) pool_->release(version_pkt[v]);  // defensive: unused version
      continue;
    }
    for (std::size_t extra = 1; extra < consumers; ++extra) {
      pool_->add_ref(version_pkt[v]);
    }
  }

  // Distributed delivery: one reference write per target NF.
  const SimTime handoff_delay =
      carry_delay + copy_delay + config_.costs.ring_enqueue.delay;
  for (std::size_t k = 0; k < instances.size(); ++k) {
    Packet* version = version_pkt[seg.nfs[k].version];
    free = entry_core->execute(free, config_.costs.ring_enqueue.occ);
    const SimTime handoff = channel->stamp(free + handoff_delay);
    sim_.schedule_at(handoff, [this, g, seg_idx, k, version, handoff] {
      run_nf(g, seg_idx, k, version, handoff);
    });
  }
}

void NfpDataplane::run_nf(std::size_t g, std::size_t seg_idx,
                          std::size_t nf_idx, Packet* pkt, SimTime ready) {
  GraphRuntime& runtime = graphs_[g];
  const Segment& seg = runtime.graph.segments()[seg_idx];
  NfInstance& inst = runtime.segments[seg_idx][nf_idx];

  const sim::OpCost deq = config_.costs.nf_dequeue;
  const sim::OpCost nf_cost = config_.costs.nf_cost(
      inst.meta.name, pkt->length(), config_.delaynf_cycles);

  const u64 pid = pkt->meta().pid();
  trace(pid, telemetry::SpanKind::kNfEnter, ready, inst.component.c_str(),
        pkt->meta().version());

  // Real packet processing.
  PacketView view(*pkt);
  NfVerdict verdict = NfVerdict::kPass;
  if (view.valid()) {
    verdict = inst.impl->process(view);
  }

  const SimTime free = inst.core.execute(ready, deq.occ + nf_cost.occ);
  const SimTime latency = deq.delay + nf_cost.delay;
  // Service time at this NF: core queueing wait + dequeue + compute; the
  // p99/p50 gap of this histogram is the NF's queueing under load.
  inst.service->record(static_cast<u64>(free - ready));
  // The exit span includes the NF's pipeline latency (deq + compute delay)
  // so the profiler books it as service time, not downstream queueing.
  trace(pid, telemetry::SpanKind::kNfExit, free + latency,
        inst.component.c_str(), pkt->meta().version());

  if (!seg.is_parallel()) {
    if (verdict == NfVerdict::kDrop) {
      ++stats_.dropped_by_nf;
      m_dropped_nf_->inc();
      trace(pid, telemetry::SpanKind::kDrop, free, inst.component.c_str());
      log_debug("NF ", inst.component, " dropped packet pid=", pid);
      pool_->release(pkt);
      return;
    }
    // The NF's outbound FIFO channel keeps hand-offs ordered: a small
    // packet's shorter processing latency cannot let it overtake an earlier
    // packet on the same ring.
    leave_segment(g, seg_idx, pkt, free, &inst.core, latency, &inst.out);
    return;
  }

  // Parallel stage: forward to the merger (nil packets signal drops, §5.2).
  MergeItem item;
  item.arrival.pkt = pkt;
  item.arrival.version = inst.meta.version;
  item.arrival.drop_intent = verdict == NfVerdict::kDrop;
  item.arrival.priority = inst.meta.priority;
  item.arrival.can_drop = inst.meta.can_drop;
  item.sender = &inst.component;
  const SimTime enq_free =
      inst.core.execute(free, config_.costs.ring_enqueue.occ);
  const SimTime handoff = inst.out.stamp(enq_free + latency +
                                         config_.costs.ring_enqueue.delay);
  sim_.schedule_at(handoff, [this, g, seg_idx, item, handoff] {
    to_merger(g, seg_idx, item, handoff);
  });
}

void NfpDataplane::to_merger(std::size_t g, std::size_t seg_idx,
                             MergeItem item, SimTime t) {
  // Merger agent: hash the immutable PID and steer to an instance (§5.3).
  const SimTime free = agent_core_.execute(t, config_.costs.merger_agent.occ);
  const std::size_t instance = static_cast<std::size_t>(
      mix64(item.arrival.pkt->meta().pid()) % merger_cores_.size());
  const SimTime handoff = free + config_.costs.merger_agent.delay;
  sim_.schedule_at(handoff, [this, g, seg_idx, instance, item, handoff] {
    merger_arrival(g, seg_idx, instance, item, handoff);
  });
}

void NfpDataplane::merger_arrival(std::size_t g, std::size_t seg_idx,
                                  std::size_t instance, MergeItem item,
                                  SimTime t) {
  const Segment& seg = graphs_[g].graph.segments()[seg_idx];
  const SimTime free =
      merger_cores_[instance].execute(t, config_.costs.merge_arrival.occ);

  const u64 pid = item.arrival.pkt->meta().pid();
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    // The arrival span carries the *sender* NF's component so the profiler
    // can pair each parallel branch's arrival with its enter/exit spans.
    tracer_->record(pid, telemetry::SpanKind::kMergerArrival, free,
                    item.sender != nullptr
                        ? *item.sender
                        : "merger#" + std::to_string(instance),
                    item.arrival.version);
  }
  const AtKey key{g, seg_idx, pid};
  MergeState& state = at_[instance][key];
  state.arrivals.push_back(item.arrival);
  m_at_entries_[instance]->set(static_cast<double>(at_[instance].size()));
  if (state.arrivals.size() < seg.merge.total_count) return;

  MergeState complete = std::move(state);
  at_[instance].erase(key);
  complete_merge(g, seg_idx, instance, std::move(complete),
                 free + config_.costs.merge_arrival.delay);
}

void NfpDataplane::complete_merge(std::size_t g, std::size_t seg_idx,
                                  std::size_t instance, MergeState state,
                                  SimTime t) {
  const Segment& seg = graphs_[g].graph.segments()[seg_idx];
  // Drop resolution (§5.2/§5.3 nil packets; DESIGN.md) and merge ops.
  Packet* merged = resolve_merge(seg, state.arrivals);

  const SimTime ops_occ = config_.costs.merge_per_op_ns * seg.merge.ops.size();
  const SimTime free = merger_cores_[instance].execute(
      t, config_.costs.merge_final.occ + ops_occ);
  const SimTime latency =
      config_.costs.merge_final.delay +
      config_.costs.merge_per_arrival_delay_ns * seg.merge.total_count;
  ++stats_.merges;
  m_merges_->inc();
  const u64 pid =
      state.arrivals.empty() ? 0 : state.arrivals.front().pkt->meta().pid();
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    tracer_->record(pid, telemetry::SpanKind::kMergeComplete, free,
                    "merger#" + std::to_string(instance));
  }

  if (merged == nullptr) {
    ++stats_.dropped_by_nf;
    m_dropped_nf_->inc();
    trace(pid, telemetry::SpanKind::kDrop, free, "merger-drop-resolution");
    log_debug("merger resolved drop for pid=", pid);
    for (const MergeArrival& a : state.arrivals) pool_->release(a.pkt);
    return;
  }
  // Release every reference except one to the output packet.
  bool kept_one = false;
  for (const MergeArrival& a : state.arrivals) {
    if (a.pkt == merged && !kept_one) {
      kept_one = true;
      continue;
    }
    pool_->release(a.pkt);
  }

  leave_segment(g, seg_idx, merged, free, &merger_cores_[instance], latency,
                &merger_out_[instance]);
}

void NfpDataplane::leave_segment(std::size_t g, std::size_t seg_idx,
                                 Packet* pkt, SimTime t, sim::SimCore* core,
                                 SimTime carry_delay,
                                 sim::FifoChannel* channel) {
  if (seg_idx + 1 < graphs_[g].graph.segments().size()) {
    enter_segment(g, seg_idx + 1, pkt, t, core, carry_delay, channel);
    return;
  }
  const SimTime free = core->execute(t, config_.costs.output_queue.occ);
  const SimTime handoff = channel->stamp(
      free + carry_delay + config_.costs.output_queue.delay);
  sim_.schedule_at(handoff, [this, pkt] { output(pkt, sim_.now()); });
}

void NfpDataplane::output(Packet* pkt, SimTime t) {
  const SimTime free =
      tx_link_.execute(t, config_.costs.wire_ns(pkt->length()));
  const SimTime done = free + config_.costs.nic_delay_ns;
  ++stats_.delivered;
  m_delivered_->inc();
  m_latency_->record(static_cast<u64>(done - pkt->inject_time()));
  trace(pkt->meta().pid(), telemetry::SpanKind::kOutput, done, "tx-link");
  if (sink_) {
    sink_(pkt, done);
  } else {
    pool_->release(pkt);
  }
}

}  // namespace nfp
