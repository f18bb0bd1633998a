#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "dataplane/live_classifier.hpp"
#include "dataplane/merge_ops.hpp"
#include "dataplane/merge_table.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "packet/packet_pool.hpp"
#include "ring/spsc_ring.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Results folded into a volatile sink so the timed calls stay live.
volatile u64 g_sink = 0;

constexpr int kReps = 7;

// Median over kReps timed calls of `pass`, in ns per operation.
template <typename Pass>
double median_ns_per_op(Pass&& pass, std::size_t ops_per_pass) {
  std::array<double, kReps> per_op{};
  for (double& v : per_op) {
    const u64 t0 = now_ns();
    pass();
    const u64 t1 = now_ns();
    v = static_cast<double>(t1 - t0) / static_cast<double>(ops_per_pass);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[kReps / 2];
}

std::vector<nfp::Packet*> load_packets(nfp::PacketPool& pool,
                                       const FrameSet& frames,
                                       std::size_t count) {
  std::vector<nfp::Packet*> pkts;
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const u8> f = frames[i % frames.size()];
    nfp::Packet* p = pool.alloc(f.size());
    std::memcpy(p->data(), f.data(), f.size());
    pkts.push_back(p);
  }
  return pkts;
}

}  // namespace

IsolatedCosts measure_isolated(const FrameSet& frames,
                               const std::vector<nfp::CtRule>& rules) {
  IsolatedCosts c;
  u64 sink = 0;

  // Classifier: the workload's own tuples against its own rules.
  std::vector<nfp::FiveTuple> tuples;
  const std::size_t n_tuples = std::min<std::size_t>(frames.size(), 16'384);
  for (std::size_t i = 0; i < n_tuples; ++i) {
    if (const auto t = nfp::parse_five_tuple(frames[i])) tuples.push_back(*t);
  }
  nfp::LiveClassificationTable ct(1);
  ct.add_rules(rules);
  nfp::MicroflowCache cache(ct,
                            nfp::ShardedDataplaneOptions{}.microflow_capacity);
  const auto mf_pass = [&] {
    for (const nfp::FiveTuple& t : tuples) sink += cache.classify(t);
  };
  mf_pass();  // warm: fill the cache as a running shard would have
  c.mf_ns = median_ns_per_op(mf_pass, tuples.size());
  c.ct_ns = median_ns_per_op(
      [&] {
        for (const nfp::FiveTuple& t : tuples) sink += ct.classify(t);
      },
      tuples.size());
  std::size_t next_rule = 0;
  c.rule_update_ms =
      median_ns_per_op([&] { ct.add_rule(unmatched_rule(next_rule++)); }, 1) /
      1e6;

  // Header-only copy: the fanout copy of a parallel segment.
  constexpr std::size_t kPackets = 256;
  nfp::PacketPool pool(kPackets * 4 + 8);
  const std::vector<nfp::Packet*> base = load_packets(pool, frames, kPackets);
  c.copy_ns = median_ns_per_op(
      [&] {
        for (int rep = 0; rep < 16; ++rep) {
          for (nfp::Packet* p : base) {
            nfp::Packet* copy = pool.clone_header_only(*p);
            sink += copy->length();
            pool.release(copy);
          }
        }
      },
      16 * kPackets);

  // Merge: a 4-version parallel segment (small-par4's), four arrivals per
  // packet, then the merge operations on the completed set.
  const nfp::ServiceGraph par4 = nfp::ServiceGraph::parallel(
      "par4", {"monitor", "monitor", "monitor", "monitor"}, {1, 2, 3, 4});
  const nfp::Segment& seg = par4.segments()[0];
  std::vector<std::array<nfp::Packet*, 4>> versions;
  for (nfp::Packet* p : base) {
    versions.push_back({p, pool.clone_header_only(*p),
                        pool.clone_header_only(*p),
                        pool.clone_header_only(*p)});
  }
  nfp::MergeTable table(64, 4);
  std::vector<std::pair<nfp::Packet*, u8>> pairs;
  u64 pid = 0;
  c.merge_ns = median_ns_per_op(
      [&] {
        for (int rep = 0; rep < 16; ++rep) {
          for (const auto& v : versions) {
            for (u8 k = 0; k < 4; ++k) {
              nfp::MergeArrival a;
              a.pkt = v[k];
              a.version = static_cast<u8>(k + 1);
              const std::span<nfp::MergeArrival> done = table.add(pid, a);
              if (done.empty()) continue;
              pairs.clear();
              for (const nfp::MergeArrival& d : done) {
                pairs.emplace_back(d.pkt, d.version);
              }
              sink += nfp::apply_merge_operations(seg, pairs) != nullptr;
            }
            ++pid;
          }
        }
      },
      16 * kPackets);

  // Ring hop: one burst in and out of an SPSC ring per 32 elements.
  nfp::SpscRing<nfp::Packet*> ring(1024);
  std::array<nfp::Packet*, 32> in{};
  std::array<nfp::Packet*, 32> out{};
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = base[i];
  constexpr std::size_t kBursts = 4096;
  c.ring_hop_ns = median_ns_per_op(
      [&] {
        for (std::size_t b = 0; b < kBursts; ++b) {
          sink += ring.push_burst(std::span<nfp::Packet* const>(in));
          sink += ring.pop_burst(std::span<nfp::Packet*>(out));
        }
      },
      kBursts * in.size());

  for (const auto& v : versions) {
    for (std::size_t k = 1; k < v.size(); ++k) pool.release(v[k]);
  }
  for (nfp::Packet* p : base) pool.release(p);
  g_sink = sink;
  return c;
}

}  // namespace perfbench
