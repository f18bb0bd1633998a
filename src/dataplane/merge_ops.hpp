// Merge resolution for a parallel segment (paper §5.2-§5.3, Fig 6): the
// drop rule over the branches' verdicts, then the byte-level merge
// operations onto the version-1 packet. Every executor resolves its merges
// here — the simulated NfpDataplane, LivePipeline's merger thread and its
// fused run-to-completion segments — so all of them share one set of merge
// semantics.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/service_graph.hpp"
#include "packet/packet.hpp"

namespace nfp {

// One branch's arrival at a merge point: the packet version it processed
// plus the sender stage's metadata needed for drop resolution.
struct MergeArrival {
  Packet* pkt = nullptr;
  u8 version = 1;
  bool drop_intent = false;
  i32 priority = 0;
  bool can_drop = false;
  // Latency-observatory spans reported by the sending NF for sampled
  // packets (zero otherwise). Carried here because parallel NFs sharing one
  // packet version must not write the packet's stamp bytes.
  u64 queue_ns = 0;
  u64 service_ns = 0;
  u64 out_ns = 0;  // when the NF pushed this arrival to its out ring
};

// Resolves one complete arrival set. The drop rule (DESIGN.md):
//   kAnyDrop   the packet drops if any branch drops it (sequential
//              semantics for Order-derived parallelism);
//   kPriority  the drop-capable branches of the highest priority decide,
//              and the packet drops if any of them drops it — so a tie
//              resolves the same whatever order the arrivals came in.
// A surviving packet gets the segment's merge operations applied onto its
// version-1 arrival, which is returned; nullptr means dropped (by the rule,
// or because no version-1 arrival is present in a malformed hand-built
// graph). Arrivals are not released; no heap allocation.
Packet* resolve_merge(const Segment& seg,
                      std::span<const MergeArrival> arrivals);

// The merge operations alone, over (packet, version) pairs; several pairs
// may reference the same packet. Returns the version-1 packet, nullptr
// when none is present. Checksums are left exactly as the winning NFs
// wrote them so the merged packet is byte-identical to the sequential
// execution (§6.4).
Packet* apply_merge_operations(
    const Segment& seg, const std::vector<std::pair<Packet*, u8>>& arrivals);

}  // namespace nfp
