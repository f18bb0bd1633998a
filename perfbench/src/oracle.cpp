#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/hash.hpp"
#include "dataplane/live_classifier.hpp"
#include "nfs/nf.hpp"
#include "packet/packet_pool.hpp"
#include "packet/packet_view.hpp"

namespace perfbench {

namespace {

using nfp::telemetry::DropReason;

u64 frame_hash(std::span<const u8> frame) { return nfp::fnv1a64(frame); }

bool same_bytes(std::span<const u8> a, std::span<const u8> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace

Reference build_reference(const nfp::ServiceGraph& graph,
                          const FrameSet& frames,
                          const std::vector<nfp::CtRule>& rules) {
  nfp::LiveClassificationTable ct(1);
  ct.add_rules(rules);

  std::vector<std::vector<std::unique_ptr<nfp::NetworkFunction>>> nfs;
  int instance = 0;
  for (const nfp::Segment& seg : graph.segments()) {
    auto& stage = nfs.emplace_back();
    for (const nfp::StageNf& meta : seg.nfs) {
      stage.push_back(nfp::make_builtin_nf(
          meta.name, static_cast<u64>(instance++) + 1));
      if (stage.back() == nullptr) {
        std::fprintf(stderr, "perfbench: unknown NF type %s\n",
                     meta.name.c_str());
        std::exit(2);
      }
    }
  }

  Reference ref;
  ref.drop_reason.reserve(frames.size());
  nfp::PacketPool pool(4);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::span<const u8> frame = frames[i];
    if (const auto tuple = nfp::parse_five_tuple(frame)) {
      if (ct.classify(*tuple) == nfp::LiveClassificationTable::kDropGraph) {
        ref.out.push({});
        ref.drop_reason.push_back(
            static_cast<int>(DropReason::kClassifierMiss));
        continue;
      }
    }
    nfp::Packet* pkt = pool.alloc(frame.size());
    std::memcpy(pkt->data(), frame.data(), frame.size());
    bool dropped = false;
    // Parallel NFs of a segment touch disjoint fields (that is what let
    // the compiler parallelize them), so running them in order on one
    // packet is the sequential chain the merged output must equal; a
    // segment drops the packet when any of its NFs does.
    for (auto& stage : nfs) {
      for (auto& nf : stage) {
        nfp::PacketView view(*pkt);
        if (view.valid() && nf->process(view) == nfp::NfVerdict::kDrop) {
          dropped = true;
        }
      }
      if (dropped) break;
    }
    if (dropped) {
      ref.out.push({});
      ref.drop_reason.push_back(static_cast<int>(DropReason::kNfVerdict));
    } else {
      ref.out.push({pkt->data(), pkt->length()});
      ref.drop_reason.push_back(-1);
    }
    pool.release(pkt);
  }
  return ref;
}

Oracle::Oracle(const Reference& ref, std::size_t n)
    : ref_(ref), n_(std::min(n, ref.drop_reason.size())) {
  for (std::size_t i = 0; i < n_; ++i) {
    if (ref.drop_reason[i] < 0) {
      expected_.push_back(Key{frame_hash(ref.out[i]), i});
    } else {
      ++drops_[static_cast<std::size_t>(ref.drop_reason[i])];
    }
  }
  std::sort(expected_.begin(), expected_.end(),
            [](const Key& a, const Key& b) { return a.hash < b.hash; });
}

Mismatch Oracle::check(const std::vector<std::vector<u8>>& outputs,
                       const DropCounts& drops) const {
  Mismatch m;
  std::vector<Key> got;
  got.reserve(outputs.size());
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    got.push_back(Key{frame_hash(outputs[j]), j});
  }
  std::sort(got.begin(), got.end(),
            [](const Key& a, const Key& b) { return a.hash < b.hash; });

  // Walk both sorted lists; inside a run of equal hashes, pair frames by
  // exact bytes so a hash collision can never hide a corrupted frame.
  std::size_t e = 0;
  std::size_t g = 0;
  std::vector<bool> used;
  while (e < expected_.size() || g < got.size()) {
    if (g == got.size() ||
        (e < expected_.size() && expected_[e].hash < got[g].hash)) {
      ++m.missing;
      ++e;
      continue;
    }
    if (e == expected_.size() || got[g].hash < expected_[e].hash) {
      ++m.extra;
      ++g;
      continue;
    }
    const u64 h = expected_[e].hash;
    std::size_t e_end = e;
    while (e_end < expected_.size() && expected_[e_end].hash == h) ++e_end;
    std::size_t g_end = g;
    while (g_end < got.size() && got[g_end].hash == h) ++g_end;
    used.assign(e_end - e, false);
    std::size_t matched = 0;
    for (std::size_t k = g; k < g_end; ++k) {
      const std::span<const u8> out(outputs[got[k].index]);
      for (std::size_t x = e; x < e_end; ++x) {
        if (!used[x - e] && same_bytes(ref_.out[expected_[x].index], out)) {
          used[x - e] = true;
          ++matched;
          break;
        }
      }
    }
    m.missing += (e_end - e) - matched;
    m.extra += (g_end - g) - matched;
    e = e_end;
    g = g_end;
  }

  for (std::size_t r = 0; r < drops.size(); ++r) {
    if (drops[r] < drops_[r]) {
      m.missing += drops_[r] - drops[r];
    } else {
      m.extra += drops[r] - drops_[r];
    }
  }
  return m;
}

bool oracle_self_test(const Reference& ref) {
  // Enough frames to hold a delivered frame for each fault.
  std::size_t n = 0;
  std::size_t delivered = 0;
  while (n < ref.drop_reason.size() && delivered < 16) {
    if (ref.drop_reason[n] < 0) ++delivered;
    ++n;
  }
  if (delivered < 3) {
    std::fprintf(stderr, "oracle self-test: too few delivered frames\n");
    return false;
  }
  const Oracle oracle(ref, n);
  std::vector<std::vector<u8>> exact;
  DropCounts drops{};
  for (std::size_t i = 0; i < n; ++i) {
    if (ref.drop_reason[i] < 0) {
      exact.emplace_back(ref.out[i].begin(), ref.out[i].end());
    } else {
      ++drops[static_cast<std::size_t>(ref.drop_reason[i])];
    }
  }

  const auto corrupt = [](std::vector<std::vector<u8>>& out) {
    out[0].back() ^= 0x01;
  };
  const auto lose = [](std::vector<std::vector<u8>>& out) {
    out.erase(out.begin() + 1);
  };
  const auto duplicate = [](std::vector<std::vector<u8>>& out) {
    out.push_back(out[2]);
  };

  struct Case {
    const char* name;
    std::vector<std::vector<u8>> outputs;
    u64 want;
  };
  std::vector<Case> cases;
  cases.push_back({"exact", exact, 0});
  cases.push_back({"corrupted", exact, 2});
  corrupt(cases.back().outputs);
  cases.push_back({"missing", exact, 1});
  lose(cases.back().outputs);
  cases.push_back({"duplicated", exact, 1});
  duplicate(cases.back().outputs);
  cases.push_back({"all three", exact, 4});
  duplicate(cases.back().outputs);
  corrupt(cases.back().outputs);
  lose(cases.back().outputs);

  bool ok = true;
  for (const Case& c : cases) {
    const u64 got = oracle.check(c.outputs, drops).failed();
    if (got != c.want) {
      std::fprintf(stderr,
                   "oracle self-test: %s counted %llu failures, want %llu\n",
                   c.name, static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(c.want));
      ok = false;
    }
  }
  // A frame delivered where the reference drops it, or dropped where the
  // reference delivers it, is a failure too.
  DropCounts wrong = drops;
  ++wrong[static_cast<std::size_t>(DropReason::kNfVerdict)];
  std::vector<std::vector<u8>> short_by_one = exact;
  short_by_one.pop_back();
  if (oracle.check(short_by_one, wrong).failed() != 2) {
    std::fprintf(stderr, "oracle self-test: wrong drop not counted\n");
    ok = false;
  }
  return ok;
}

}  // namespace perfbench
