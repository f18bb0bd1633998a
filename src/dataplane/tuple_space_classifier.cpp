#include "dataplane/tuple_space_classifier.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>

#include "common/rng.hpp"

namespace nfp {

namespace {

// Prefix length when `mask` is contiguous (e.g. /24 = 0xFFFFFF00), else -1.
i8 prefix_len_of(u32 mask) noexcept {
  const int ones = std::popcount(mask);
  const u32 contiguous =
      ones == 0 ? 0u : (0xFFFFFFFFu << (32 - static_cast<unsigned>(ones)));
  return mask == contiguous ? static_cast<i8>(ones) : i8{-1};
}

// Canonical hash key of `flow` under a mask signature: masked addresses,
// and zeroed port/proto fields for disabled predicates so a stored rule and
// a probing packet collapse to the same key.
FiveTuple masked_key(const FiveTuple& flow, u32 src_mask, u32 dst_mask,
                     bool match_src_port, bool match_dst_port,
                     bool match_proto) noexcept {
  FiveTuple key;
  key.src_ip = flow.src_ip & src_mask;
  key.dst_ip = flow.dst_ip & dst_mask;
  key.src_port = match_src_port ? flow.src_port : u16{0};
  key.dst_port = match_dst_port ? flow.dst_port : u16{0};
  key.proto = match_proto ? flow.proto : u8{0};
  return key;
}

}  // namespace

void LinearCtScan::add_exact(const FiveTuple& flow, std::size_t graph) {
  exact_[flow] = clamp_graph(graph);
}

void LinearCtScan::add_rule(CtRule rule) {
  rule.graph = clamp_graph(rule.graph);
  rules_.push_back(rule);
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const CtRule& a, const CtRule& b) {
                     return a.priority > b.priority;
                   });
}

void LinearCtScan::add_rules(const std::vector<CtRule>& rules) {
  rules_.reserve(rules_.size() + rules.size());
  for (CtRule rule : rules) {
    rule.graph = clamp_graph(rule.graph);
    rules_.push_back(rule);
  }
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const CtRule& a, const CtRule& b) {
                     return a.priority > b.priority;
                   });
}

std::size_t LinearCtScan::classify(const FiveTuple& flow) const {
  const auto it = exact_.find(flow);
  if (it != exact_.end()) return it->second;
  for (const CtRule& rule : rules_) {  // sorted by descending priority
    if (rule.matches(flow)) return rule.graph;
  }
  return 0;
}

std::shared_ptr<const TupleSpaceClassifier> TupleSpaceClassifier::build(
    const ExactCtMap& exact, std::span<const CtRule> rules,
    std::size_t graph_count) {
  auto snap = std::shared_ptr<TupleSpaceClassifier>(
      new TupleSpaceClassifier(graph_count));
  snap->rule_count_ = rules.size();
  snap->cells_.reserve(exact.size() + rules.size());
  snap->exact_.reserve(exact.size());
  for (const auto& [flow, graph] : exact) {
    snap->exact_.insert(flow_hash32(flow),
                        static_cast<u32>(snap->cells_.size()));
    snap->cells_.push_back({flow, {0, 0, snap->clamp_graph(graph)}});
  }

  // Group rules by mask signature; within a (tuple, masked key) cell keep
  // only the winner by (priority desc, insertion order asc) — losers in the
  // same cell match exactly the same packets and are unreachable.
  struct Built {
    Tuple tuple;
    FlowIndex table;
    std::size_t entries = 0;
  };
  std::vector<Built> built;
  std::map<std::tuple<u32, u32, u8>, std::size_t> index_of;
  for (std::size_t seq = 0; seq < rules.size(); ++seq) {
    const CtRule& rule = rules[seq];
    const u8 flags = static_cast<u8>((rule.match_src_port ? 1u : 0u) |
                                     (rule.match_dst_port ? 2u : 0u) |
                                     (rule.match_proto ? 4u : 0u));
    const auto sig = std::make_tuple(rule.src_mask, rule.dst_mask, flags);
    auto [it, fresh] = index_of.try_emplace(sig, built.size());
    if (fresh) {
      Tuple t;
      t.src_mask = rule.src_mask;
      t.dst_mask = rule.dst_mask;
      t.match_src_port = rule.match_src_port;
      t.match_dst_port = rule.match_dst_port;
      t.match_proto = rule.match_proto;
      t.max_priority = rule.priority;
      t.src_prefix_len = prefix_len_of(rule.src_mask);
      t.dst_prefix_len = prefix_len_of(rule.dst_mask);
      snap->src_all_prefixes_ &= t.src_prefix_len > 0;
      snap->dst_all_prefixes_ &= t.dst_prefix_len > 0;
      built.push_back({t, FlowIndex{}, 0});
    }
    Built& b = built[it->second];
    Tuple& tuple = b.tuple;
    tuple.max_priority = std::max(tuple.max_priority, rule.priority);
    const FiveTuple key =
        masked_key({rule.src_ip, rule.dst_ip, rule.src_port, rule.dst_port,
                    rule.proto},
                   rule.src_mask, rule.dst_mask, rule.match_src_port,
                   rule.match_dst_port, rule.match_proto);
    const Candidate cand{rule.priority, static_cast<u32>(seq),
                         snap->clamp_graph(rule.graph)};
    const u32 hash = flow_hash32(key);
    const u32 slot = b.table.find(
        hash, [&](u32 s) { return snap->cells_[s].key == key; });
    if (slot == kNoSlot) {
      b.table.reserve(++b.entries);
      b.table.insert(hash, static_cast<u32>(snap->cells_.size()));
      snap->cells_.push_back({key, cand});
    } else if (cand.priority > snap->cells_[slot].cand.priority) {
      // Equal priority keeps the incumbent: lower seq wins the tie.
      snap->cells_[slot].cand = cand;
    }
    if (tuple.src_prefix_len > 0) {
      snap->src_trie_.insert(rule.src_ip & rule.src_mask,
                             static_cast<u8>(tuple.src_prefix_len), 1);
      snap->src_trie_used_ = true;
    }
    if (tuple.dst_prefix_len > 0) {
      snap->dst_trie_.insert(rule.dst_ip & rule.dst_mask,
                             static_cast<u8>(tuple.dst_prefix_len), 1);
      snap->dst_trie_used_ = true;
    }
  }

  // Descending max_priority lets classify() stop the walk once the best
  // verdict so far strictly outranks everything a later tuple can hold.
  std::stable_sort(built.begin(), built.end(),
                   [](const Built& a, const Built& b) {
                     return a.tuple.max_priority > b.tuple.max_priority;
                   });
  snap->tuples_.reserve(built.size());
  snap->tables_.reserve(built.size());
  for (Built& b : built) {
    snap->tuples_.push_back(b.tuple);
    snap->tables_.push_back(std::move(b.table));
  }
  return snap;
}

std::size_t TupleSpaceClassifier::classify(const FiveTuple& flow) const {
  if (exact_.positions() != 0) {  // most deployments install no exact flow
    if (const Cell* hit = probe(exact_, flow)) return hit->cand.graph;
  }

  // One trie walk per direction yields, for every prefix length at once,
  // whether this address lies under some rule prefix of that length.
  const u64 src_bits =
      src_trie_used_ ? src_trie_.match_length_mask(flow.src_ip) : 0;
  const u64 dst_bits =
      dst_trie_used_ ? dst_trie_.match_length_mask(flow.dst_ip) : 0;
  if ((src_bits == 0 && src_all_prefixes_) ||
      (dst_bits == 0 && dst_all_prefixes_)) {
    return 0;  // outside every rule's subnets: the prefix prune skips all
  }

  const Candidate* best = nullptr;
  const Tuple* const first = tuples_.data();
  for (const Tuple* t = first; t != first + tuples_.size(); ++t) {
    const Tuple& tuple = *t;
    // Strictly greater: an equal-priority candidate in a later tuple can
    // still win the tie on insertion order.
    if (best != nullptr && best->priority > tuple.max_priority) break;
    if (tuple.src_prefix_len > 0 &&
        ((src_bits >> tuple.src_prefix_len) & 1) == 0) {
      continue;
    }
    if (tuple.dst_prefix_len > 0 &&
        ((dst_bits >> tuple.dst_prefix_len) & 1) == 0) {
      continue;
    }
    const FiveTuple key =
        masked_key(flow, tuple.src_mask, tuple.dst_mask,
                   tuple.match_src_port, tuple.match_dst_port,
                   tuple.match_proto);
    const Cell* entry = probe(tables_[t - first], key);
    if (entry == nullptr) continue;
    const Candidate& cand = entry->cand;
    if (best == nullptr || cand.priority > best->priority ||
        (cand.priority == best->priority && cand.seq < best->seq)) {
      best = &cand;
    }
  }
  return best != nullptr ? best->graph : 0;
}

std::vector<CtRule> synthetic_ct_rules(std::size_t count, u64 seed,
                                       std::size_t graph_count) {
  static constexpr u8 kSrcLens[] = {8, 12, 16, 20, 24, 28, 32};
  static constexpr int kDstLens[] = {0, 12, 16, 24};  // 0 = wildcard dst
  std::vector<CtRule> rules;
  rules.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    CtRule r;
    const u8 src_len = kSrcLens[i % std::size(kSrcLens)];
    r.src_mask = 0xFFFFFFFFu << (32 - src_len);
    r.src_ip = (0x0A000000u |  // 10.0.0.0/8
                (static_cast<u32>(rng.next()) & 0x00FFFFFFu)) &
               r.src_mask;
    const int dst_len = kDstLens[i % std::size(kDstLens)];
    if (dst_len > 0) {
      r.dst_mask = 0xFFFFFFFFu << (32 - dst_len);
      r.dst_ip = (0xAC100000u |  // 172.16.0.0/12
                  (static_cast<u32>(rng.next()) & 0x000FFFFFu)) &
                 r.dst_mask;
    }
    r.match_dst_port = (i % 8) < 2;
    if (r.match_dst_port) {
      r.dst_port = static_cast<u16>(80 + rng.bounded(1024));
    }
    r.match_proto = (i % 8) >= 4;
    if (r.match_proto) r.proto = (rng.next() & 1) != 0 ? u8{6} : u8{17};
    r.priority = static_cast<int>(rng.bounded(16));
    r.graph = rng.bounded(100) == 0 ? kCtDropGraph
                                    : static_cast<std::size_t>(
                                          rng.bounded(graph_count));
    rules.push_back(r);
  }
  return rules;
}

}  // namespace nfp
