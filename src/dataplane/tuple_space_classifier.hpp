// Tuple-space search classifier for the live Classification Table.
//
// The compiler's CT holds masked 5-tuple rules; at 100k rules the old
// priority-ordered linear scan costs O(rules) per microflow-cache miss. This
// is the same wall OVS hit, and we adopt the same answer (its megaflow
// classifier): group rules by *mask signature* — the (src_mask, dst_mask,
// match_src_port, match_dst_port, match_proto) quintuple — into one
// exact-match hash table per distinct signature. A lookup masks the packet's
// 5-tuple with each signature and probes once per table, so cost is
// O(distinct masks), not O(rules); real rule sets reuse a handful of mask
// shapes no matter how many rules they hold.
//
// Two prunes keep the tuple walk short:
//  - Priority: tuples are sorted by descending max rule priority, so the
//    walk stops as soon as the best verdict found so far outranks every
//    rule a remaining tuple could produce. Ties continue the walk
//    (an equal-priority rule inserted earlier still has to win).
//  - Prefix (OVS's staged-lookup trick, via src/lpm): all contiguous
//    src/dst prefixes live in two binary tries; one trie walk per lookup
//    yields a bitmask of prefix lengths under which this address matches
//    *some* rule, and tuples whose prefix length bit is clear are skipped
//    without hashing. Non-contiguous and wildcard masks opt out of the
//    prune (always probed) — pruning is conservative-only. When every
//    tuple's src (or dst) mask is a prefix and no stored prefix covers the
//    address, no rule can match and the walk is skipped altogether.
//
// Layout: every probe table — one per mask signature, plus the exact-match
// table — is a FlowIndex (flow/flow_index.hpp), a linear-probing array of
// {hash bits, cell} at load <= 1/2, built once in build() over one shared
// array of {key, verdict} cells. The walk itself reads only a dense array
// of per-tuple masks, flags, prefix lengths and priority bounds; a tuple's
// probe table is touched only when both prunes let it through.
//
// A TupleSpaceClassifier is an immutable snapshot: build() constructs one
// from the authoritative rule list, classify() is const and touches no
// shared mutable state, so readers need no lock — LiveClassificationTable
// publishes snapshots through an atomic pointer under epoch protection.
//
// LinearCtScan is the original scan kept verbatim as the differential-
// testing reference: the tuple-space verdict must match it bit-for-bit,
// including priority tie-breaks (earliest-inserted wins), drop verdicts and
// the graph-0 default.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "flow/flow_index.hpp"
#include "lpm/lpm_table.hpp"

namespace nfp {

// One masked Classification Table rule (the live analogue of the compiler's
// CtEntry match spec): every enabled predicate must hold. mask == 0
// wildcards an address; the port/proto predicates are opt-in flags.
struct CtRule {
  u32 src_ip = 0;
  u32 src_mask = 0;
  u32 dst_ip = 0;
  u32 dst_mask = 0;
  u16 src_port = 0;
  bool match_src_port = false;
  u16 dst_port = 0;
  bool match_dst_port = false;
  u8 proto = 0;
  bool match_proto = false;
  int priority = 0;          // higher wins among matching rules
  std::size_t graph = 0;     // verdict: index of the service graph

  bool matches(const FiveTuple& t) const noexcept {
    if ((t.src_ip & src_mask) != (src_ip & src_mask)) return false;
    if ((t.dst_ip & dst_mask) != (dst_ip & dst_mask)) return false;
    if (match_src_port && t.src_port != src_port) return false;
    if (match_dst_port && t.dst_port != dst_port) return false;
    if (match_proto && t.proto != proto) return false;
    return true;
  }
};

using ExactCtMap = std::unordered_map<FiveTuple, std::size_t, FiveTupleHash>;

// Sentinel verdict: drop the flow at classification time (a CT drop rule —
// the DDoS-scrubbing use in the paper's policy examples).
inline constexpr std::size_t kCtDropGraph = static_cast<std::size_t>(-1);

// The pre-tuple-space classifier, preserved as the semantic reference for
// differential tests and the baseline side of bench_classifier_scale. Not
// thread-safe; single-owner use only.
class LinearCtScan {
 public:
  explicit LinearCtScan(std::size_t graph_count = 1)
      : graph_count_(graph_count == 0 ? 1 : graph_count) {}

  void add_exact(const FiveTuple& flow, std::size_t graph);
  void add_rule(CtRule rule);
  // Bulk append with a single stable sort (per-insert re-sorting is
  // quadratic at benchmark scale).
  void add_rules(const std::vector<CtRule>& rules);

  // Exact match, else best (priority desc, insertion order asc) masked
  // rule, else graph 0.
  std::size_t classify(const FiveTuple& flow) const;

  std::size_t graph_count() const noexcept { return graph_count_; }
  std::size_t rule_entries() const noexcept { return rules_.size(); }

 private:
  std::size_t clamp_graph(std::size_t g) const noexcept {
    if (g == kCtDropGraph) return g;
    return g < graph_count_ ? g : 0;
  }

  const std::size_t graph_count_;
  ExactCtMap exact_;
  std::vector<CtRule> rules_;  // kept stable-sorted by descending priority
};

// Immutable tuple-space snapshot. Thread-safe for concurrent classify()
// because nothing mutates after build().
class TupleSpaceClassifier {
 public:
  // Builds a snapshot from the authoritative state. `rules` must be in
  // insertion order — the index is the priority tie-break. Out-of-range
  // graphs clamp to 0 (kCtDropGraph survives clamping).
  static std::shared_ptr<const TupleSpaceClassifier> build(
      const ExactCtMap& exact, std::span<const CtRule> rules,
      std::size_t graph_count);

  std::size_t classify(const FiveTuple& flow) const;

  std::size_t graph_count() const noexcept { return graph_count_; }
  // Distinct mask signatures — the number a miss-path lookup is linear in.
  std::size_t tuple_count() const noexcept { return tuples_.size(); }
  std::size_t rule_count() const noexcept { return rule_count_; }

 private:
  // Winning rule for one (tuple, masked key): max by (priority desc,
  // insertion order asc). Rules sharing both have identical match
  // predicates, so only the winner is reachable.
  struct Candidate {
    int priority = 0;
    u32 seq = 0;       // insertion index; lower wins priority ties
    std::size_t graph = 0;
  };

  // One entry of a probe table: a masked key (or, in exact_, a full flow)
  // and its verdict. Exact entries use only `cand.graph`.
  struct Cell {
    FiveTuple key;
    Candidate cand;
  };

  // The fields of one distinct mask signature that the walk reads before
  // it decides to probe. Kept dense (the probe tables live out of line in
  // tables_) so a walk whose tuples are all pruned strides over 20 bytes a
  // tuple.
  struct Tuple {
    u32 src_mask = 0;
    u32 dst_mask = 0;
    bool match_src_port = false;
    bool match_dst_port = false;
    bool match_proto = false;
    int max_priority = 0;      // walk-pruning bound over entries
    i8 src_prefix_len = -1;    // 0..32 when the mask is a prefix, else -1
    i8 dst_prefix_len = -1;
  };

  explicit TupleSpaceClassifier(std::size_t graph_count)
      : graph_count_(graph_count == 0 ? 1 : graph_count) {}

  std::size_t clamp_graph(std::size_t g) const noexcept {
    if (g == kCtDropGraph) return g;
    return g < graph_count_ ? g : 0;
  }

  // The cell `table` holds for `key`; nullptr when absent.
  const Cell* probe(const FlowIndex& table, const FiveTuple& key) const {
    const u32 slot = table.find(
        flow_hash32(key), [&](u32 s) { return cells_[s].key == key; });
    return slot == kNoSlot ? nullptr : &cells_[slot];
  }

  std::size_t graph_count_;
  std::size_t rule_count_ = 0;
  FlowIndex exact_;            // exact-match flows, into cells_
  std::vector<Tuple> tuples_;  // sorted by descending max_priority
  std::vector<FlowIndex> tables_;  // tables_[i]: tuple i's masked keys
  std::vector<Cell> cells_;        // every probe table's entries
  // All contiguous rule prefixes, for the staged-lookup prune. The stored
  // next-hop value is unused; only "does a prefix of length L cover this
  // address" matters (LpmTable::match_length_mask).
  bool src_trie_used_ = false;
  bool dst_trie_used_ = false;
  // Every tuple's src (dst) mask is a prefix of 1..32 bits: an address no
  // trie prefix covers then matches no rule, and the walk can be skipped.
  bool src_all_prefixes_ = true;
  bool dst_all_prefixes_ = true;
  LpmTable src_trie_;
  LpmTable dst_trie_;
};

// Deterministic synthetic rule set for benchmarks and stress tests: `count`
// rules cycling through ~56 mask signatures. Every rule constrains src to a
// prefix of at least /8 inside 10.0.0.0/8, so traffic from e.g. 192.168/16
// is guaranteed to miss every rule and exercise the full walk. Priorities
// collide heavily (0..15) to stress the tie-break; ~1% of rules are drop
// rules (graph == kCtDropGraph).
std::vector<CtRule> synthetic_ct_rules(std::size_t count, u64 seed,
                                       std::size_t graph_count);

}  // namespace nfp
