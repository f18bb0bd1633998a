// Drop-conflict resolution in the merger (§3's Priority example and §5.2's
// nil packets): Order-derived parallelism uses "any drop wins" (sequential
// semantics); Priority-declared parallelism lets the highest-priority
// drop-capable NF decide — Priority(IPS > Firewall) adopts the IPS result.
// Each case runs on the simulated dataplane and on LivePipeline in both
// execution modes, which must all deliver the same count.
#include <gtest/gtest.h>

#include "dataplane/live_pipeline.hpp"
#include "dataplane/nfp_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "nfs/ids.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/parser.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

// Deterministic stand-ins: a firewall that drops everything and an IPS that
// passes everything (their verdicts conflict on every packet).
NfFactory conflicting_factory(bool ips_drops) {
  return [ips_drops](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    if (nf.name == "ips") {
      if (ips_drops) {
        // Signature matching everything our generator sends (payload 0x5c
        // = '\\').
        return std::make_unique<Ips>(std::vector<std::string>{
            std::string(6, '\x5c')});
      }
      return std::make_unique<Ips>(std::vector<std::string>{"NOMATCH"});
    }
    return make_builtin_nf(nf.name);
  };
}

constexpr u64 kPackets = 50;
// TrafficConfig's default payload fill, which the dropping IPS matches.
constexpr u8 kPayloadByte = 0x5c;

ServiceGraph compile_text(const std::string& policy_text) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto graph = compile_policy(parse_policy(policy_text).value(), table);
  EXPECT_TRUE(graph.is_ok()) << graph.error();
  return std::move(graph).take();
}

u64 run_and_count_delivered(const std::string& policy_text, bool ips_drops) {
  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.factory = conflicting_factory(ips_drops);
  NfpDataplane dp(sim, compile_text(policy_text), std::move(cfg));
  u64 delivered = 0;
  dp.set_sink([&](Packet* p, SimTime) {
    ++delivered;
    dp.pool().release(p);
  });
  TrafficConfig traffic;
  traffic.packets = kPackets;
  traffic.fixed_size = 128;
  EXPECT_EQ(traffic.payload_byte, kPayloadByte);
  TrafficGenerator gen(sim, dp.pool(), traffic);
  gen.start([&](Packet* p) { dp.inject(p); });
  sim.run();
  EXPECT_EQ(dp.pool().in_use(), 0u);
  return delivered;
}

u64 run_live_and_count_delivered(const std::string& policy_text,
                                 bool ips_drops, ExecMode mode) {
  PacketPool pool(2);
  std::vector<std::vector<u8>> frames;
  for (u64 i = 0; i < kPackets; ++i) {
    PacketSpec spec;
    spec.tuple.src_port = static_cast<u16>(10'000 + i % 8);
    spec.frame_size = 128;
    spec.payload_byte = kPayloadByte;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  LivePipelineOptions opts;
  opts.exec_mode = mode;
  LivePipeline live(compile_text(policy_text), conflicting_factory(ips_drops),
                    opts);
  const LiveResult res = live.run(frames);
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size() + res.dropped, kPackets);
  EXPECT_EQ(live.pool_in_use(), 0u);
  return res.outputs.size();
}

// The simulator and both live execution modes deliver `expected` packets.
void expect_delivered_everywhere(const std::string& policy_text,
                                 bool ips_drops, u64 expected) {
  EXPECT_EQ(run_and_count_delivered(policy_text, ips_drops), expected);
  for (const ExecMode mode : {ExecMode::kPipelined, ExecMode::kRtc}) {
    EXPECT_EQ(run_live_and_count_delivered(policy_text, ips_drops, mode),
              expected)
        << exec_mode_name(mode);
  }
}

TEST(DropResolution, PriorityRuleAdoptsHighPriorityVerdict) {
  // Priority(IPS > Firewall): firewall drops, IPS passes => IPS wins, the
  // packets go through (§3: "adopt the processing result of IPS").
  expect_delivered_everywhere("policy p\npriority(ips > firewall)",
                              /*ips_drops=*/false, kPackets);
}

TEST(DropResolution, PriorityRuleDropsWhenHighPriorityDrops) {
  expect_delivered_everywhere("policy p\npriority(ips > firewall)",
                              /*ips_drops=*/true, 0);
}

TEST(DropResolution, OrderDerivedParallelismAnyDropWins) {
  // Monitor before Firewall compiles to parallel with kAnyDrop: the
  // firewall's drop always kills the packet (sequential semantics).
  expect_delivered_everywhere("policy p\nchain(monitor, firewall)",
                              /*ips_drops=*/false, 0);
}

TEST(DropResolution, CompilerMarksResolutionModes) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto prio = compile_policy(
      parse_policy("priority(ips > firewall)").value(), table);
  ASSERT_TRUE(prio.is_ok());
  EXPECT_EQ(prio.value().segments()[0].merge.drop_resolution,
            DropResolution::kPriority);

  auto order = compile_policy(
      parse_policy("chain(monitor, firewall)").value(), table);
  ASSERT_TRUE(order.is_ok());
  EXPECT_EQ(order.value().segments()[0].merge.drop_resolution,
            DropResolution::kAnyDrop);
}

}  // namespace
}  // namespace nfp
