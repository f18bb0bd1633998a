#include "dataplane/merge_ops.hpp"

#include <array>
#include <cstring>

#include "packet/packet_view.hpp"

namespace nfp {

namespace {

// [version] -> that version's packet; versions beyond the metadata field
// (or the segment) never occur and are ignored.
using VersionTable = std::array<Packet*, Metadata::kMaxVersion + 1>;

void note_version(VersionTable& by_version, const Segment& seg, Packet* pkt,
                  u8 version) {
  if (version < by_version.size() && version <= seg.num_versions) {
    by_version[version] = pkt;
  }
}

bool rule_drops(const Segment& seg, std::span<const MergeArrival> arrivals) {
  if (seg.merge.drop_resolution == DropResolution::kAnyDrop) {
    for (const MergeArrival& a : arrivals) {
      if (a.drop_intent) return true;
    }
    return false;
  }
  bool found = false;
  i32 best = 0;
  bool dropped = false;
  for (const MergeArrival& a : arrivals) {
    if (!a.can_drop) continue;
    if (!found || a.priority > best) {
      found = true;
      best = a.priority;
      dropped = a.drop_intent;
    } else if (a.priority == best) {
      dropped = dropped || a.drop_intent;
    }
  }
  return dropped;
}

Packet* merge_onto_base(const Segment& seg, const VersionTable& by_version) {
  Packet* base = by_version[1];
  if (base == nullptr) return nullptr;

  PacketView base_view(*base);
  for (const MergeOp& op : seg.merge.ops) {
    if (op.src_version >= by_version.size()) continue;
    Packet* src = by_version[op.src_version];
    if (src == nullptr) continue;
    PacketView src_view(*src);
    if (!src_view.valid() || !base_view.valid()) continue;
    switch (op.kind) {
      case MergeOp::Kind::kModify:
        switch (op.field) {
          case Field::kSrcIp: base_view.set_src_ip(src_view.src_ip()); break;
          case Field::kDstIp: base_view.set_dst_ip(src_view.dst_ip()); break;
          case Field::kSrcPort:
            base_view.set_src_port(src_view.src_port());
            break;
          case Field::kDstPort:
            base_view.set_dst_port(src_view.dst_port());
            break;
          case Field::kTtl: base_view.set_ttl(src_view.ttl()); break;
          case Field::kTos: base_view.set_tos(src_view.tos()); break;
          case Field::kPayload: {
            const auto src_body = src_view.payload();
            base_view.resize_payload(src_body.size());
            auto dst_body = base_view.mutable_payload();
            std::memcpy(dst_body.data(), src_body.data(), src_body.size());
            break;
          }
          default:
            break;
        }
        break;
      case MergeOp::Kind::kSyncAh: {
        if (src_view.has_ah() && !base_view.has_ah()) {
          // add(v2.AH, after, v1.IP) — paper Fig 6.
          AhView src_ah(src->data() + src_view.l3_offset() + kIpv4HeaderLen);
          AhView dst_ah =
              base_view.add_ah_header(src_ah.spi(), src_ah.sequence());
          std::memcpy(dst_ah.icv(), src_ah.icv(), 12);
          dst_ah.set_next_header(src_ah.next_header());
        } else if (!src_view.has_ah() && base_view.has_ah()) {
          base_view.remove_ah_header();
        }
        break;
      }
    }
  }
  return base;
}

}  // namespace

Packet* resolve_merge(const Segment& seg,
                      std::span<const MergeArrival> arrivals) {
  if (rule_drops(seg, arrivals)) return nullptr;
  VersionTable by_version{};
  for (const MergeArrival& a : arrivals) {
    note_version(by_version, seg, a.pkt, a.version);
  }
  return merge_onto_base(seg, by_version);
}

Packet* apply_merge_operations(
    const Segment& seg, const std::vector<std::pair<Packet*, u8>>& arrivals) {
  VersionTable by_version{};
  for (const auto& [pkt, version] : arrivals) {
    note_version(by_version, seg, pkt, version);
  }
  return merge_onto_base(seg, by_version);
}

}  // namespace nfp
