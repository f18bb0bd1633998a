// Wait policy of the live pipeline (ring/backoff.hpp): a pipelined graph
// pinned to one core waits WaitPolicy::kSharedCore, yielding on its first
// wait step, and must stay exactly as correct as the sequential chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "acl/acl.hpp"
#include "common/cpu_affinity.hpp"
#include "dataplane/live_pipeline.hpp"
#include "nfs/firewall.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "packet/packet_view.hpp"
#include "policy/parser.hpp"
#include "policy/policy.hpp"

namespace nfp {
namespace {

ServiceGraph compile_north_south() {
  std::ifstream in(std::string(NFP_SOURCE_DIR) +
                   "/examples/policies/north_south.nfp");
  std::stringstream text;
  text << in.rdbuf();
  auto policy = parse_policy(text.str());
  EXPECT_TRUE(policy.is_ok()) << policy.error();
  auto graph =
      compile_policy(policy.value(), ActionTable::with_builtin_nfs());
  EXPECT_TRUE(graph.is_ok()) << graph.error();
  return std::move(graph).take();
}

// Built-in NFs, except a firewall that drops every frame from 10.0.0.3 so
// the merger's drop resolution is exercised on a known share of traffic.
std::unique_ptr<NetworkFunction> dropping_factory(const StageNf& nf) {
  if (nf.name == "firewall") {
    AclRule rule;
    rule.src_prefix = 0x0a000003;
    rule.src_prefix_len = 32;
    rule.action = AclAction::kDrop;
    AclTable acl;
    acl.add(rule);
    return std::make_unique<Firewall>(std::move(acl));
  }
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
}

// Data-center-like sizes over 8 source hosts.
std::vector<std::vector<u8>> make_frames(std::size_t count) {
  static constexpr std::size_t kSizes[] = {64, 128, 576, 724, 1024, 1500};
  PacketPool pool(2);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple.src_ip = 0x0a000001 + static_cast<u32>(i % 8);
    spec.tuple.src_port = static_cast<u16>(7000 + i % 13);
    spec.frame_size = kSizes[i % std::size(kSizes)];
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// The sequential chain: every NF in graph order on one packet; a segment
// drops the packet when any of its NFs does (parallel NFs touch disjoint
// fields, which is what let the compiler parallelize them).
LiveResult run_sequential(const ServiceGraph& graph,
                          const std::vector<std::vector<u8>>& frames) {
  std::vector<std::unique_ptr<NetworkFunction>> nfs;
  int instance = 0;
  for (const Segment& seg : graph.segments()) {
    for (StageNf meta : seg.nfs) {
      meta.instance_id = instance++;
      nfs.push_back(dropping_factory(meta));
    }
  }
  LiveResult out;
  PacketPool pool(2);
  for (const auto& frame : frames) {
    Packet* pkt = pool.alloc(frame.size());
    std::memcpy(pkt->data(), frame.data(), frame.size());
    bool dropped = false;
    std::size_t k = 0;
    for (const Segment& seg : graph.segments()) {
      for (std::size_t i = 0; i < seg.nfs.size(); ++i, ++k) {
        PacketView view(*pkt);
        if (view.valid() && nfs[k]->process(view) == NfVerdict::kDrop) {
          dropped = true;
        }
      }
      if (dropped) break;
    }
    if (dropped) {
      ++out.dropped;
    } else {
      out.outputs.emplace_back(pkt->data(), pkt->data() + pkt->length());
    }
    pool.release(pkt);
  }
  return out;
}

bool can_pin_to_core_zero() {
  bool ok = false;
  std::thread([&ok] { ok = pin_current_thread_to_core(0); }).join();
  return ok;
}

LivePipelineOptions pinned_to_core_zero() {
  LivePipelineOptions opts;
  opts.exec_mode = ExecMode::kPipelined;
  opts.pin_core = 0;
  return opts;
}

TEST(SharedCoreWait, OnlyAPinnedPipelinedGraphSharesACore) {
  LivePipeline pinned(compile_north_south(), {}, pinned_to_core_zero());
  EXPECT_EQ(pinned.wait_policy(), WaitPolicy::kSharedCore);

  LivePipelineOptions rtc = pinned_to_core_zero();
  rtc.exec_mode = ExecMode::kRtc;
  LivePipeline fused(compile_north_south(), {}, rtc);
  EXPECT_EQ(fused.wait_policy(), WaitPolicy::kOwnCore);

  LivePipelineOptions unpinned = pinned_to_core_zero();
  unpinned.pin_core = -1;
  LivePipeline spread(compile_north_south(), {}, unpinned);
  EXPECT_EQ(spread.wait_policy(), WaitPolicy::kOwnCore);
}

TEST(SharedCoreWait, NorthSouthOnOneCoreMatchesSequentialChain) {
  if (!can_pin_to_core_zero()) {
    GTEST_SKIP() << "sched_setaffinity denied: cannot pin to core 0";
  }
  const ServiceGraph graph = compile_north_south();
  ASSERT_EQ(graph.segments().size(), 3u);
  ASSERT_EQ(graph.segments()[1].nfs.size(), 2u) << "expected 1+2+1";
  const auto frames = make_frames(600);

  LivePipeline pipe(graph, dropping_factory, pinned_to_core_zero());
  LiveResult live = pipe.run(frames);
  ASSERT_TRUE(live.status.is_ok());
  ASSERT_TRUE(pipe.affinity_applied());
  LiveResult expected = run_sequential(graph, frames);

  EXPECT_GT(expected.dropped, 0u);
  EXPECT_EQ(live.dropped, expected.dropped);
  EXPECT_EQ(pipe.dropped_by(telemetry::DropReason::kNfVerdict),
            expected.dropped);
  ASSERT_EQ(live.outputs.size(), expected.outputs.size());
  std::sort(live.outputs.begin(), live.outputs.end());
  std::sort(expected.outputs.begin(), expected.outputs.end());
  EXPECT_EQ(live.outputs, expected.outputs);
  EXPECT_EQ(pipe.pool_in_use(), 0u);
}

TEST(SharedCoreWait, DrainMidBurstAccountsEveryDrop) {
  if (!can_pin_to_core_zero()) {
    GTEST_SKIP() << "sched_setaffinity denied: cannot pin to core 0";
  }
  // A small window and pool keep feed() waiting on the shared core, and
  // drain() arrives while the last burst is still in the rings.
  LivePipelineOptions opts = pinned_to_core_zero();
  opts.ring_depth = 16;
  opts.pool_size = 32;
  opts.magazine_size = 4;
  const auto frames = make_frames(400);

  LivePipeline pipe(compile_north_south(), dropping_factory, opts);
  ASSERT_TRUE(pipe.start().is_ok());
  for (const auto& frame : frames) {
    pipe.feed({frame.data(), frame.size()});
  }
  const LiveResult result = pipe.drain();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_TRUE(pipe.affinity_applied());

  EXPECT_EQ(result.outputs.size() + result.dropped, frames.size());
  EXPECT_GT(result.dropped, 0u);
  u64 by_reason = 0;
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    by_reason += pipe.dropped_by(static_cast<telemetry::DropReason>(r));
  }
  EXPECT_EQ(by_reason, result.dropped);
  EXPECT_EQ(pipe.pool_in_use(), 0u);
}

}  // namespace
}  // namespace nfp
