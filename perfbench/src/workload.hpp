// Workload definitions of the dataplane benchmark and the set-up step they
// share: generated frames, Classification Table rules, service graph and a
// started ShardedDataplane.
//
// Each workload exists to stress one set of layers; README.md records why
// each was chosen, its thread count, and which layer metric should move
// which end-to-end metric on it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "dataplane/tuple_space_classifier.hpp"
#include "graph/service_graph.hpp"
#include "trafficgen/trafficgen.hpp"

namespace perfbench {

class Tracer;

using nfp::u64;
using nfp::u8;

// Frames stored back to back; frame i is bytes[offsets[i], offsets[i+1]).
struct FrameSet {
  std::vector<u8> bytes;
  std::vector<std::size_t> offsets{0};

  std::size_t size() const noexcept { return offsets.size() - 1; }
  std::span<const u8> operator[](std::size_t i) const noexcept {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  void push(std::span<const u8> frame) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    offsets.push_back(bytes.size());
  }
};

struct Workload {
  std::string name;
  // Dataplane shape.
  std::size_t shards = 1;
  nfp::ExecMode mode = nfp::ExecMode::kRtc;
  // Traffic.
  nfp::SizeModel size_model = nfp::SizeModel::kFixed;
  std::size_t flows = 0;  // ignored under churn
  bool churn = false;     // every packet a fresh 5-tuple
  // Graph: compiled from `policy_file` (relative to the repository root)
  // at every set-up when set, else `graph` as built here.
  std::string policy_file;
  nfp::ServiceGraph graph;
  std::string structure;  // regime guard: the graph's Fig 14 structure
  // Classification Table: synthetic masked rules preloaded at set-up, and
  // one never-matching add_rule every `rule_update_every` packets (0: none).
  std::size_t ct_rules = 0;
  std::size_t rule_update_every = 0;
  // Load: distinct frames generated per run, frames per closed-loop round
  // (a prefix of them), frames per open-loop round (latency rounds rotate
  // over disjoint windows of them) and the open-loop offered rate.
  std::size_t frames = 0;
  std::size_t pps_round_packets = 0;
  std::size_t lat_round_packets = 0;
  double lat_rate_pps = 0;
};

const Workload* find_workload(std::string_view name);
std::vector<std::string> workload_names();

// `count` frames drawn from the workload's traffic model. The IPv4
// identification field carries the frame index mod 2^16, so traced NF
// calls can be tied back to the feed() that injected the packet.
FrameSet make_frames(const Workload& w, std::size_t count, u64 seed);

// The workload's Classification Table rules. They belong to the deployment,
// not to the traffic, so they do not vary with the seed: the tuple-space
// cost of one random rule set differs from the next by more than the
// run-to-run noise.
std::vector<nfp::CtRule> make_ct_rules(const Workload& w);

// The k-th mid-run rule: a /24 inside 192.168.0.0/16, which no generated
// frame (sources in 10.0.0.0/8) ever matches, so verdicts stay fixed while
// every add still pays the snapshot rebuild and cache invalidation.
nfp::CtRule unmatched_rule(std::size_t k);

// Reads the policy text a policy-compiled workload needs ("" otherwise).
std::string read_policy_text(const Workload& w);

// Parses and compiles `policy_text` (the orch layer). Exits on failure.
nfp::ServiceGraph compile_graph(const std::string& policy_text);

struct SetupTimes {
  double parse_s = 0;
  double compile_s = 0;
  double construct_s = 0;
  double ct_install_s = 0;
  double start_s = 0;
  double total() const {
    return parse_s + compile_s + construct_s + ct_install_s + start_s;
  }
};

struct Plane {
  std::unique_ptr<nfp::ShardedDataplane> dp;
  SetupTimes times;
};

// The timed set-up: parse + compile (policy workloads), construction, CT
// rule install and start(). `before_start` runs untimed between install
// and start() (observatory registration). Spans go to `tracer` when set.
Plane set_up(const Workload& w, const std::string& policy_text,
             const std::vector<nfp::CtRule>& rules,
             nfp::ShardedDataplane::NfFactory factory,
             std::size_t latency_sample_every, Tracer* tracer,
             const std::function<void(nfp::ShardedDataplane&)>& before_start);

}  // namespace perfbench
