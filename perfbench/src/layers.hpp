// Isolated per-layer costs: each layer's public functions called in a
// tight loop on the benchmark thread, over the workload's own frames,
// tuples and rules. They complement the in-situ numbers (shard counters,
// traced process() calls) in the per-layer ledger.
#pragma once

#include <vector>

#include "dataplane/tuple_space_classifier.hpp"
#include "workload.hpp"

namespace perfbench {

struct IsolatedCosts {
  double mf_ns = 0;           // MicroflowCache::classify per call
  double ct_ns = 0;           // LiveClassificationTable::classify per call
  double rule_update_ms = 0;  // LiveClassificationTable::add_rule per call
  double copy_ns = 0;         // clone_header_only + release per copy
  double merge_ns = 0;        // 4x MergeTable::add + apply_merge_operations
  double ring_hop_ns = 0;     // push_burst + pop_burst per element
};

IsolatedCosts measure_isolated(const FrameSet& frames,
                               const std::vector<nfp::CtRule>& rules);

}  // namespace perfbench
