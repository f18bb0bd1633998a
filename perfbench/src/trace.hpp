// Spans recorded from the benchmark's own code, around every call it makes
// into a layer: each set-up step, each feed(), add_rule() and drain(), and
// — through a timing decorator handed to the dataplane as its NfFactory —
// each in-situ NetworkFunction::process() on the shard threads.
//
// A span carries its name, start, end, and the span that caused it; the
// parent follows from the kind (a feed belongs to its round, a process()
// to the feed of the same packet). Per-packet spans use the packet's frame
// index as their id. Spans stay in memory and are written out at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataplane/sharded_dataplane.hpp"

namespace perfbench {

using nfp::u32;
using nfp::u64;
using nfp::u8;

inline u64 now_ns() noexcept {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : u8 {
  kSetup,
  kParse,
  kCompile,
  kConstruct,
  kCtInstall,
  kStart,
  kRound,
  kFeed,
  kAddRule,
  kDrain,
  kProcess,
  kCount,
};
inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_kind_name(SpanKind kind) noexcept;

// The NF types the ledger reports (nf.<type>.ns / nf.<type>.calls); the
// vpn stays last, where the north-south guard looks for it.
inline constexpr std::array<const char*, 4> kNfTypes = {"monitor", "lb",
                                                        "firewall", "vpn"};
inline constexpr std::size_t kNfTypeCount = kNfTypes.size();

struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 id = 0;  // packet index (feed/process/add_rule) or round number
  SpanKind kind = SpanKind::kSetup;
  u8 nf_type = 0;  // index into kNfTypes (kProcess only)
};

// In-situ record of one NF instance. Written only by the thread that runs
// the instance; read after drain() has joined that thread.
struct NfRecord {
  std::size_t type = kNfTypeCount;
  u64 calls = 0;
  u64 ns = 0;
  u64 last_index = 0;  // reconstructs full packet indices from 16-bit ids
  std::vector<Span> spans;
};

// Per-layer totals folded over every traced round of a run.
struct TraceTotals {
  struct Layer {
    u64 count = 0;
    u64 total_ns = 0;
    u64 self_ns = 0;
  };
  std::array<Layer, kSpanKindCount> kinds{};
  std::array<Layer, kNfTypeCount> process{};  // kProcess split by NF type
  u64 round_wall_ns = 0;  // first feed() to drain() return, summed
  u64 rounds = 0;
};

// One traced round's spans.
class Tracer {
 public:
  Tracer(u32 round, std::size_t expected_packets);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void add(SpanKind kind, u64 id, u64 start_ns, u64 end_ns) {
    spans_.push_back(Span{start_ns, end_ns, static_cast<u32>(id), kind, 0});
  }
  u32 round() const noexcept { return round_; }

  // make_builtin_nf (instance id + 1 as seed, as the dataplane's default
  // factory) wrapped in a decorator that times process() into this
  // tracer. The tracer must outlive the dataplane built with it.
  nfp::ShardedDataplane::NfFactory nf_factory();

  // Adds this round's per-layer counts, total and self time to `totals`.
  // Self time is a span's duration minus the part of it its children
  // cover. Call after drain().
  void fold_into(TraceTotals& totals) const;

  // CSV: name,id,parent,parent_id,start_ns,end_ns (relative to `epoch_ns`).
  // Per-packet spans are written for packets below `max_packets` only.
  void write_csv(std::FILE* out, u64 epoch_ns, u64 max_packets) const;

 private:
  u32 round_;
  std::size_t expected_packets_;
  std::vector<Span> spans_;  // director thread
  std::vector<std::unique_ptr<NfRecord>> nfs_;
};

}  // namespace perfbench
