// Output oracle: what the dataplane must deliver for a run of frames.
//
// The reference is built in one thread, untimed, from the library's own
// parts: parse_five_tuple, LiveClassificationTable::classify over the
// workload's rules, then the graph's NFs in order on fresh make_builtin_nf
// instances (seeded by instance id, as the dataplane's default factory).
// A run is checked by comparing the multiset of delivered frames and the
// per-reason drop counts against the reference for the frames it offered.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "telemetry/flow_observatory.hpp"
#include "workload.hpp"

namespace perfbench {

using DropCounts = std::array<u64, nfp::telemetry::kDropReasonCount>;

// Expected fate of every frame: its output bytes, or a drop reason.
struct Reference {
  FrameSet out;  // out[i] is empty when frame i is dropped
  std::vector<int> drop_reason;  // -1 when delivered
};

Reference build_reference(const nfp::ServiceGraph& graph,
                          const FrameSet& frames,
                          const std::vector<nfp::CtRule>& rules);

struct Mismatch {
  u64 missing = 0;  // expected fates not observed (lost, wrongly dropped)
  u64 extra = 0;    // observed fates not expected (duplicated, spurious)
  // A corrupted frame counts once on each side.
  u64 failed() const noexcept { return missing + extra; }
};

// The reference for the first `n` frames, prepared for repeated checks.
class Oracle {
 public:
  Oracle(const Reference& ref, std::size_t n);

  std::size_t offered() const noexcept { return n_; }

  Mismatch check(const std::vector<std::vector<u8>>& outputs,
                 const DropCounts& drops) const;

 private:
  struct Key {
    u64 hash;
    std::size_t index;
  };
  const Reference& ref_;
  std::size_t n_;
  std::vector<Key> expected_;  // delivered frames, sorted by hash
  DropCounts drops_{};
};

// Feeds the oracle a corrupted frame, a missing frame and a duplicated
// frame (one at a time, then together) on `ref`'s first frames and
// requires each to be counted. Prints what failed; returns false if any.
bool oracle_self_test(const Reference& ref);

}  // namespace perfbench
