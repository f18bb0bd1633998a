// Accumulation table for the live merger (paper §5.3 "merging table").
//
// One instance per parallel segment — the sharding that replaces the old
// global std::map<(segment, pid), vector> — holding the partial arrival
// sets of packets whose parallel copies have not all reached the merger
// yet. Storage is a fixed-stride open-addressing hash table keyed by PID:
// each slot owns `arrivals_per_pid` preallocated arrival records (sized by
// the segment's merge.total_count), so the steady-state hot path performs
// zero heap allocation — no nodes, no per-PID vectors. Deletion uses
// backward-shift (no tombstones), keeping probe chains short for the
// lifetime of the run; occupancy is bounded by the pipeline's in-flight
// window, and the table doubles in the (config-error) case it fills past
// half anyway. Single-threaded by design: only the merger thread touches it.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "dataplane/merge_ops.hpp"

namespace nfp {

class MergeTable {
 public:
  // `expected_pids` bounds concurrently-accumulating PIDs (the in-flight
  // window); the table allocates 2x that, rounded up to a power of two.
  MergeTable(std::size_t expected_pids, u32 arrivals_per_pid);

  // Records one arrival for `pid`. When it completes the set (the
  // arrivals_per_pid-th arrival), the full set is returned — the span stays
  // valid until the next add() — and the slot is recycled. Otherwise
  // returns an empty span.
  std::span<MergeArrival> add(u64 pid, const MergeArrival& arrival);

  std::size_t pending() const noexcept { return live_; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  u32 arrivals_per_pid() const noexcept { return per_pid_; }

 private:
  struct Slot {
    u64 pid_plus1 = 0;  // 0 = empty
    u32 count = 0;
  };

  std::size_t home(u64 pid) const noexcept {
    // Fibonacci mix: sequential PIDs spread evenly, arbitrary ones too.
    return static_cast<std::size_t>((pid + 1) * 0x9E3779B97F4A7C15ull) & mask_;
  }

  void erase_at(std::size_t idx);
  void grow();

  u32 per_pid_;
  std::size_t mask_;
  std::vector<Slot> slots_;
  std::vector<MergeArrival> arrivals_;   // slots_.size() * per_pid_, flat
  std::vector<MergeArrival> completed_;  // scratch returned by add()
  std::size_t live_ = 0;
};

}  // namespace nfp
