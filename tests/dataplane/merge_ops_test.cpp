// Direct tests of merge resolution (paper §5.2-§5.3, Fig 6) — the one
// merge core behind every executor: the byte-level merge engine with a
// randomized write-graft property check, and the drop rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.hpp"
#include "dataplane/merge_ops.hpp"
#include "packet/builder.hpp"
#include "packet/packet_view.hpp"

namespace nfp {
namespace {

Segment two_version_segment(std::vector<MergeOp> ops) {
  Segment seg;
  seg.nfs.push_back(StageNf{"a", 0, 1, 0, false});
  seg.nfs.push_back(StageNf{"b", 1, 2, 1, false});
  seg.num_versions = 2;
  seg.merge.total_count = 2;
  seg.merge.ops = std::move(ops);
  return seg;
}

TEST(MergeOpsTest, Fig6StyleModifyAndAh) {
  // The paper's Fig 6: modify(v1.A, v2.A) + add(v2.AH, after, v1.IP).
  PacketPool pool(4);
  PacketSpec spec;
  spec.frame_size = 300;
  Packet* v1 = build_packet(pool, spec);
  Packet* v2 = pool.clone_full(*v1);
  ASSERT_NE(v2, nullptr);
  v2->meta().set_version(2);

  PacketView v2_view(*v2);
  v2_view.set_src_ip(0xDEADBEEF);
  v2_view.add_ah_header(/*spi=*/0x77, /*seq=*/9);

  const Segment seg = two_version_segment(
      {MergeOp{MergeOp::Kind::kModify, 2, Field::kSrcIp},
       MergeOp{MergeOp::Kind::kSyncAh, 2, Field::kAhHeader}});
  Packet* merged = apply_merge_operations(seg, {{v1, 1}, {v2, 2}});
  ASSERT_EQ(merged, v1) << "version 1 is always the merge base";

  PacketView out(*merged);
  ASSERT_TRUE(out.valid());
  EXPECT_EQ(out.src_ip(), 0xDEADBEEFu);
  EXPECT_TRUE(out.has_ah());
  EXPECT_EQ(out.ah().spi(), 0x77u);
  pool.release(v1);
  pool.release(v2);
}

TEST(MergeOpsTest, PayloadGraft) {
  PacketPool pool(4);
  PacketSpec spec;
  spec.frame_size = 200;
  Packet* v1 = build_packet(pool, spec);
  Packet* v2 = pool.clone_full(*v1);
  PacketView v2_view(*v2);
  auto body = v2_view.mutable_payload();
  for (auto& b : body) b = 0xEE;
  v2_view.resize_payload(body.size() / 2);

  const Segment seg = two_version_segment(
      {MergeOp{MergeOp::Kind::kModify, 2, Field::kPayload}});
  Packet* merged = apply_merge_operations(seg, {{v1, 1}, {v2, 2}});
  ASSERT_EQ(merged, v1);
  PacketView out(*merged);
  EXPECT_EQ(out.payload_len(), body.size() / 2);
  for (const u8 b : out.payload()) EXPECT_EQ(b, 0xEE);
  pool.release(v1);
  pool.release(v2);
}

TEST(MergeOpsTest, MissingBaseReturnsNull) {
  PacketPool pool(2);
  Packet* v2 = build_packet(pool, PacketSpec{});
  v2->meta().set_version(2);
  const Segment seg = two_version_segment({});
  EXPECT_EQ(apply_merge_operations(seg, {{v2, 2}}), nullptr);
  pool.release(v2);
}

TEST(MergeOpsTest, RandomizedFieldGraftsMatchExpectation) {
  // Property: for random disjoint header writes on v1 and v2, applying
  // modify-ops for v2's written fields yields exactly "v1's writes plus
  // v2's writes" — the definition of result correctness for write merges.
  PacketPool pool(4);
  Rng rng(31337);
  const Field header_fields[] = {Field::kSrcIp, Field::kDstIp,
                                 Field::kSrcPort, Field::kDstPort,
                                 Field::kTtl, Field::kTos};

  for (int round = 0; round < 200; ++round) {
    PacketSpec spec;
    spec.frame_size = 64 + rng.bounded(400);
    Packet* v1 = build_packet(pool, spec);
    Packet* v2 = pool.clone_header_only(*v1);
    ASSERT_NE(v2, nullptr);

    // Partition fields: each field written on v2 (and merged) or left alone.
    std::vector<MergeOp> ops;
    u32 expect_sip = spec.tuple.src_ip, expect_dip = spec.tuple.dst_ip;
    u16 expect_sport = spec.tuple.src_port, expect_dport =
        spec.tuple.dst_port;
    u8 expect_ttl = spec.ttl, expect_tos = spec.tos;
    PacketView w2(*v2);
    for (const Field f : header_fields) {
      if (rng.uniform() < 0.5) continue;
      const u32 value = static_cast<u32>(rng.next());
      switch (f) {
        case Field::kSrcIp: w2.set_src_ip(value); expect_sip = value; break;
        case Field::kDstIp: w2.set_dst_ip(value); expect_dip = value; break;
        case Field::kSrcPort:
          w2.set_src_port(static_cast<u16>(value));
          expect_sport = static_cast<u16>(value);
          break;
        case Field::kDstPort:
          w2.set_dst_port(static_cast<u16>(value));
          expect_dport = static_cast<u16>(value);
          break;
        case Field::kTtl:
          w2.set_ttl(static_cast<u8>(value));
          expect_ttl = static_cast<u8>(value);
          break;
        case Field::kTos:
          w2.set_tos(static_cast<u8>(value));
          expect_tos = static_cast<u8>(value);
          break;
        default:
          break;
      }
      ops.push_back(MergeOp{MergeOp::Kind::kModify, 2, f});
    }

    const Segment seg = two_version_segment(std::move(ops));
    Packet* merged = apply_merge_operations(seg, {{v1, 1}, {v2, 2}});
    ASSERT_EQ(merged, v1);
    PacketView out(*merged);
    ASSERT_TRUE(out.valid());
    EXPECT_EQ(out.src_ip(), expect_sip);
    EXPECT_EQ(out.dst_ip(), expect_dip);
    EXPECT_EQ(out.src_port(), expect_sport);
    EXPECT_EQ(out.dst_port(), expect_dport);
    EXPECT_EQ(out.ttl(), expect_ttl);
    EXPECT_EQ(out.tos(), expect_tos);
    // The payload (absent from the header-only copy) is untouched.
    for (const u8 b : out.payload()) ASSERT_EQ(b, spec.payload_byte);

    pool.release(v1);
    pool.release(v2);
  }
}

Segment priority_segment() {
  Segment seg;
  for (int k = 0; k < 3; ++k) seg.nfs.push_back(StageNf{"nf", k, 1, 0, true});
  seg.merge.total_count = 3;
  seg.merge.drop_resolution = DropResolution::kPriority;
  return seg;
}

TEST(MergeOpsTest, PriorityTieDropsWhateverTheArrivalOrder) {
  PacketPool pool(2);
  Packet* pkt = build_packet(pool, PacketSpec{});
  const Segment seg = priority_segment();
  // Three drop-capable branches: two tie at the top priority and disagree,
  // the third sits below them.
  std::array<MergeArrival, 3> arrivals{
      MergeArrival{pkt, 1, /*drop_intent=*/false, 1, true},
      MergeArrival{pkt, 1, /*drop_intent=*/false, 5, true},
      MergeArrival{pkt, 1, /*drop_intent=*/true, 5, true}};
  const auto key_less = [](const MergeArrival& a, const MergeArrival& b) {
    return a.priority != b.priority ? a.priority < b.priority
                                    : a.drop_intent < b.drop_intent;
  };
  // Same arrivals, every order: the top-priority drop always wins the tie.
  std::size_t orders = 0;
  do {
    EXPECT_EQ(resolve_merge(seg, arrivals), nullptr) << "order " << orders;
    ++orders;
  } while (std::next_permutation(arrivals.begin(), arrivals.end(), key_less));
  EXPECT_EQ(orders, 6u);
  pool.release(pkt);
}

TEST(MergeOpsTest, PriorityRuleIgnoresLowerAndNonDropCapableBranches) {
  PacketPool pool(2);
  Packet* pkt = build_packet(pool, PacketSpec{});
  const Segment seg = priority_segment();
  // The top branch passes; a lower one and a higher but drop-incapable one
  // would drop. The packet survives, in either order.
  std::array<MergeArrival, 3> arrivals{
      MergeArrival{pkt, 1, false, 5, true},
      MergeArrival{pkt, 1, true, 1, true},
      MergeArrival{pkt, 1, true, 9, false}};
  EXPECT_EQ(resolve_merge(seg, arrivals), pkt);
  std::reverse(arrivals.begin(), arrivals.end());
  EXPECT_EQ(resolve_merge(seg, arrivals), pkt);

  // Any-drop: one dropping branch kills the packet, whatever its priority.
  Segment any = seg;
  any.merge.drop_resolution = DropResolution::kAnyDrop;
  EXPECT_EQ(resolve_merge(any, arrivals), nullptr);
  arrivals[0].drop_intent = false;
  arrivals[1].drop_intent = false;
  arrivals[2].drop_intent = false;
  EXPECT_EQ(resolve_merge(any, arrivals), pkt);
  pool.release(pkt);
}

}  // namespace
}  // namespace nfp
