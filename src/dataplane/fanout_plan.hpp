// Per-segment fanout plan and the fanout routine of LivePipeline.
//
// Entering a segment means distributing one upstream packet to the
// segment's NFs: versions >= 2 with at least one consumer get a copy (full
// or header-only per the segment's copy mask, the paper's §5.2 Header-Only
// Copying), and versions shared by several NFs carry extra references.
// Resolving that copy list and the per-version reference counts once at
// construction keeps the per-packet path free of counting loops. Both
// execution modes make their copies with fan_out(); only the pipelined
// mode, whose NF threads each release the version they consumed, adds the
// extra references — a fused segment runs its branches one after another
// and releases each version once.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.hpp"
#include "graph/service_graph.hpp"
#include "packet/packet_magazine.hpp"

namespace nfp {

struct FanoutPlan {
  struct Copy {
    u8 version = 0;
    bool full = false;
  };
  std::vector<Copy> copies;     // versions >= 2 with consumers
  std::vector<u32> extra_refs;  // [version] -> consumers - 1
  std::vector<u8> nf_version;   // [nf index] -> version consumed
};

inline FanoutPlan build_fanout_plan(const Segment& seg) {
  FanoutPlan plan;
  const auto versions = static_cast<std::size_t>(seg.num_versions);
  std::vector<u32> consumers(versions + 1, 0);
  for (const StageNf& nf : seg.nfs) {
    const auto v = static_cast<std::size_t>(nf.version);
    if (v >= 1 && v <= versions) ++consumers[v];
    plan.nf_version.push_back(
        static_cast<u8>(std::clamp<std::size_t>(v, 1, versions)));
  }
  plan.extra_refs.assign(versions + 1, 0);
  for (std::size_t v = 1; v <= versions; ++v) {
    if (consumers[v] == 0) continue;
    plan.extra_refs[v] = consumers[v] - 1;
    if (v >= 2) {
      plan.copies.push_back(FanoutPlan::Copy{
          static_cast<u8>(v),
          seg.version_needs_full_copy(static_cast<u8>(v))});
    }
  }
  return plan;
}

// [version] -> that version's packet inside one segment.
using VersionPackets = std::array<Packet*, Metadata::kMaxVersion + 2>;

// Tags `pkt` as version 1 of `seg` and makes the plan's copies into
// `versions`. On a dry pool the copies already made are released and false
// is returned; `pkt` itself always stays with the caller.
inline bool fan_out(const Segment& seg, const FanoutPlan& plan, Packet* pkt,
                    PacketMagazine& mag, VersionPackets& versions) {
  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);
  pkt->set_nil(false);
  versions[1] = pkt;
  for (const FanoutPlan::Copy& c : plan.copies) {
    Packet* copy = c.full ? mag.clone_full(*pkt) : mag.clone_header_only(*pkt);
    if (copy == nullptr) {
      for (const FanoutPlan::Copy& made : plan.copies) {
        if (made.version == c.version) break;
        mag.release(versions[made.version]);
      }
      return false;
    }
    copy->meta().set_version(c.version);
    copy->set_nil(false);
    versions[c.version] = copy;
  }
  return true;
}

}  // namespace nfp
