#include "workload.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "actions/action_table.hpp"
#include "common/rng.hpp"
#include "orch/compiler.hpp"
#include "packet/headers.hpp"
#include "packet/packet_view.hpp"
#include "policy/parser.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

std::vector<Workload> build_workloads() {
  std::vector<Workload> all;

  // Trivial NF work, so the per-packet overhead layers dominate: director,
  // ingest ring, microflow hit, fanout copy, merge, pool and egress.
  Workload par4;
  par4.name = "small-par4";
  par4.shards = 2;
  par4.mode = nfp::ExecMode::kRtc;
  par4.size_model = nfp::SizeModel::kFixed;
  par4.flows = 1024;
  par4.graph = nfp::ServiceGraph::parallel(
      "par4", {"monitor", "monitor", "monitor", "monitor"}, {1, 2, 3, 4});
  par4.structure = "4";
  par4.frames = 300'000;
  par4.pps_round_packets = 300'000;
  par4.lat_round_packets = 100'000;
  par4.lat_rate_pps = 200'000;
  all.push_back(std::move(par4));

  // Every packet misses the microflow cache, so the tuple-space walk over
  // 10k masked rules and the cache insert/evict run per packet; the mid-run
  // rule adds put writers beside the readers.
  Workload churn;
  churn.name = "syn-churn";
  churn.shards = 2;
  churn.mode = nfp::ExecMode::kRtc;
  churn.size_model = nfp::SizeModel::kFixed;
  churn.churn = true;
  churn.graph = nfp::ServiceGraph::sequential("monitor-lb", {"monitor", "lb"});
  churn.structure = "1+1";
  churn.ct_rules = 10'000;
  churn.rule_update_every = 100'000;
  churn.frames = 400'000;
  churn.pps_round_packets = 300'000;
  churn.lat_round_packets = 200'000;
  churn.lat_rate_pps = 200'000;
  all.push_back(std::move(churn));

  // The paper's Fig 1(b) policy, compiled at set-up and deployed
  // thread-per-NF (all pinned to the shard's core): compute-bound on the vpn's AES, and the only workload on
  // the pipelined mode, the merger thread and the policy compiler.
  Workload ns;
  ns.name = "north-south";
  ns.shards = 1;
  ns.mode = nfp::ExecMode::kPipelined;
  ns.size_model = nfp::SizeModel::kDataCenter;
  ns.flows = 128;
  ns.policy_file = "examples/policies/north_south.nfp";
  ns.structure = "1+2+1";
  ns.frames = 16'000;
  ns.pps_round_packets = 8'000;
  ns.lat_round_packets = 4'000;
  ns.lat_rate_pps = 4'000;
  all.push_back(std::move(ns));

  return all;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

FrameSet make_frames(const Workload& w, std::size_t count, u64 seed) {
  nfp::sim::Simulator sim;
  nfp::PacketPool pool(4);
  nfp::TrafficConfig cfg;
  cfg.size_model = w.size_model;
  cfg.fixed_size = 64;
  cfg.flows = w.churn ? 1 : w.flows;
  cfg.flow_churn = w.churn;
  cfg.seed = seed;
  nfp::TrafficGenerator gen(sim, pool, cfg);
  // Churned flow indices count up from a seed-chosen base, so each seed
  // opens a different run of fresh 5-tuples.
  const std::size_t base =
      w.churn ? static_cast<std::size_t>(nfp::Rng(seed).next() >> 24) : 0;
  FrameSet frames;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t flow = base + gen.next_flow();
    nfp::Packet* p = gen.make_packet(pool, flow, gen.next_size());
    nfp::Ipv4View(p->data() + nfp::kEthHeaderLen)
        .set_identification(static_cast<nfp::u16>(i));
    nfp::PacketView(*p).update_checksums(/*include_l4=*/true);
    frames.push({p->data(), p->length()});
    pool.release(p);
  }
  return frames;
}

std::vector<nfp::CtRule> make_ct_rules(const Workload& w) {
  if (w.ct_rules == 0) return {};
  return nfp::synthetic_ct_rules(w.ct_rules, /*seed=*/1, 1);
}

nfp::CtRule unmatched_rule(std::size_t k) {
  nfp::CtRule r;
  r.src_ip = 0xC0A80000u | (static_cast<nfp::u32>(k % 256) << 8);
  r.src_mask = 0xFFFFFF00u;
  r.priority = static_cast<int>(k % 16);
  r.graph = 0;
  return r;
}

std::string read_policy_text(const Workload& w) {
  if (w.policy_file.empty()) return {};
  std::ifstream in(w.policy_file);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s (run from the "
                         "repository root)\n", w.policy_file.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

nfp::ServiceGraph compile_timed(const std::string& policy_text,
                                SetupTimes* times, Tracer* tracer,
                                u32 round) {
  const u64 t0 = now_ns();
  nfp::Result<nfp::Policy> policy = nfp::parse_policy(policy_text);
  const u64 t1 = now_ns();
  if (!policy) {
    std::fprintf(stderr, "perfbench: policy parse failed: %s\n",
                 policy.error().c_str());
    std::exit(2);
  }
  const nfp::ActionTable table = nfp::ActionTable::with_builtin_nfs();
  nfp::Result<nfp::ServiceGraph> graph =
      nfp::compile_policy(policy.value(), table);
  const u64 t2 = now_ns();
  if (!graph) {
    std::fprintf(stderr, "perfbench: policy compile failed: %s\n",
                 graph.error().c_str());
    std::exit(2);
  }
  if (times != nullptr) {
    times->parse_s = static_cast<double>(t1 - t0) / 1e9;
    times->compile_s = static_cast<double>(t2 - t1) / 1e9;
  }
  if (tracer != nullptr) {
    tracer->add(SpanKind::kParse, round, t0, t1);
    tracer->add(SpanKind::kCompile, round, t1, t2);
  }
  return std::move(graph).take();
}

}  // namespace

nfp::ServiceGraph compile_graph(const std::string& policy_text) {
  return compile_timed(policy_text, nullptr, nullptr, 0);
}

Plane set_up(const Workload& w, const std::string& policy_text,
             const std::vector<nfp::CtRule>& rules,
             nfp::ShardedDataplane::NfFactory factory,
             std::size_t latency_sample_every, Tracer* tracer,
             const std::function<void(nfp::ShardedDataplane&)>& before_start) {
  const u32 round = tracer != nullptr ? tracer->round() : 0;
  Plane plane;
  std::vector<nfp::CtRule> batch = rules;  // add_rules consumes its input

  const u64 t_setup = now_ns();
  nfp::ServiceGraph graph =
      w.policy_file.empty()
          ? w.graph
          : compile_timed(policy_text, &plane.times, tracer, round);

  nfp::ShardedDataplaneOptions opts;
  opts.shards = w.shards;
  opts.pipeline.exec_mode = w.mode;
  opts.pipeline.latency_sample_every = latency_sample_every;

  const u64 t0 = now_ns();
  plane.dp = std::make_unique<nfp::ShardedDataplane>(
      std::vector<nfp::ServiceGraph>{std::move(graph)}, std::move(factory),
      opts);
  const u64 t1 = now_ns();
  plane.dp->add_rules(std::move(batch));
  const u64 t2 = now_ns();
  if (before_start) before_start(*plane.dp);
  const u64 t3 = now_ns();
  const nfp::Status st = plane.dp->start();
  const u64 t4 = now_ns();
  if (!st.is_ok()) {
    std::fprintf(stderr, "perfbench: start() failed: %s\n",
                 st.message().c_str());
    std::exit(2);
  }
  plane.times.construct_s = static_cast<double>(t1 - t0) / 1e9;
  plane.times.ct_install_s = static_cast<double>(t2 - t1) / 1e9;
  plane.times.start_s = static_cast<double>(t4 - t3) / 1e9;
  if (tracer != nullptr) {
    tracer->add(SpanKind::kConstruct, round, t0, t1);
    tracer->add(SpanKind::kCtInstall, round, t1, t2);
    tracer->add(SpanKind::kStart, round, t3, t4);
    tracer->add(SpanKind::kSetup, round, t_setup, t4);
  }
  return plane;
}

}  // namespace perfbench
