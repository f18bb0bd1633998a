#include "trace.hpp"

#include <algorithm>
#include <string_view>

#include "nfs/nf.hpp"
#include "packet/headers.hpp"
#include "packet/packet_view.hpp"

namespace perfbench {

namespace {

// Times process() of the wrapped NF into its record. The packet's IPv4
// identification field is its frame index mod 2^16 (see make_frames); an
// NF instance sees its shard's packets in feed order, with gaps far below
// 2^16, so the full index is the last one plus the forward 16-bit delta.
class TimedNf final : public nfp::NetworkFunction {
 public:
  TimedNf(std::unique_ptr<nfp::NetworkFunction> inner, NfRecord* record)
      : inner_(std::move(inner)), rec_(record) {}

  std::string_view type_name() const override { return inner_->type_name(); }

  nfp::NfVerdict process(nfp::PacketView& packet) override {
    const u8* ip = packet.packet().data() + nfp::kEthHeaderLen;
    const auto id16 = static_cast<nfp::u16>((ip[4] << 8) | ip[5]);
    const u64 t0 = now_ns();
    const nfp::NfVerdict verdict = inner_->process(packet);
    const u64 t1 = now_ns();
    ++rec_->calls;
    rec_->ns += t1 - t0;
    rec_->last_index += static_cast<nfp::u16>(
        id16 - static_cast<nfp::u16>(rec_->last_index));
    rec_->spans.push_back(Span{t0, t1, static_cast<u32>(rec_->last_index),
                               SpanKind::kProcess,
                               static_cast<u8>(rec_->type)});
    return verdict;
  }

  nfp::ActionProfile declared_profile() const override {
    return inner_->declared_profile();
  }

 private:
  std::unique_ptr<nfp::NetworkFunction> inner_;
  NfRecord* rec_;
};

std::size_t nf_type_index(std::string_view name) {
  for (std::size_t i = 0; i < kNfTypeCount; ++i) {
    if (name == kNfTypes[i]) return i;
  }
  return kNfTypeCount;
}

SpanKind parent_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse:
    case SpanKind::kCompile:
    case SpanKind::kConstruct:
    case SpanKind::kCtInstall:
    case SpanKind::kStart:
      return SpanKind::kSetup;
    case SpanKind::kFeed:
    case SpanKind::kAddRule:
    case SpanKind::kDrain:
      return SpanKind::kRound;
    case SpanKind::kProcess:
      return SpanKind::kFeed;
    default:
      return SpanKind::kCount;
  }
}

}  // namespace

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kParse: return "parse_policy";
    case SpanKind::kCompile: return "compile_policy";
    case SpanKind::kConstruct: return "construct";
    case SpanKind::kCtInstall: return "ct_install";
    case SpanKind::kStart: return "start";
    case SpanKind::kRound: return "round";
    case SpanKind::kFeed: return "feed";
    case SpanKind::kAddRule: return "add_rule";
    case SpanKind::kDrain: return "drain";
    case SpanKind::kProcess: return "process";
    default: return "?";
  }
}

Tracer::Tracer(u32 round, std::size_t expected_packets)
    : round_(round), expected_packets_(expected_packets) {
  spans_.reserve(expected_packets + 64);
}

nfp::ShardedDataplane::NfFactory Tracer::nf_factory() {
  return [this](const nfp::StageNf& nf)
             -> std::unique_ptr<nfp::NetworkFunction> {
    auto inner = nfp::make_builtin_nf(nf.name,
                                      static_cast<u64>(nf.instance_id) + 1);
    if (inner == nullptr) return nullptr;
    auto rec = std::make_unique<NfRecord>();
    rec->type = nf_type_index(nf.name);
    // Sized for every packet of the round so no reallocation lands inside
    // a timed process() call.
    rec->spans.reserve(expected_packets_);
    NfRecord* raw = rec.get();
    nfs_.push_back(std::move(rec));
    return std::make_unique<TimedNf>(std::move(inner), raw);
  };
}

void Tracer::fold_into(TraceTotals& totals) const {
  std::array<u64, kSpanKindCount> child_ns{};
  std::vector<const Span*> feed_of;
  for (const Span& s : spans_) {
    const u64 dur = s.end_ns - s.start_ns;
    auto& layer = totals.kinds[static_cast<std::size_t>(s.kind)];
    ++layer.count;
    layer.total_ns += dur;
    const SpanKind parent = parent_of(s.kind);
    if (parent != SpanKind::kCount) {
      child_ns[static_cast<std::size_t>(parent)] += dur;
    }
    if (s.kind == SpanKind::kFeed) {
      if (feed_of.size() <= s.id) feed_of.resize(s.id + 1, nullptr);
      feed_of[s.id] = &s;
    }
    if (s.kind == SpanKind::kRound) {
      totals.round_wall_ns += dur;
      ++totals.rounds;
    }
  }

  // Parts of feed() intervals that the same packet's process() spans
  // cover (they run on other threads and rarely overlap; union per packet).
  struct Cover {
    u32 id;
    u64 start;
    u64 end;
  };
  std::vector<Cover> covers;
  for (const auto& rec : nfs_) {
    for (const Span& p : rec->spans) {
      const u64 dur = p.end_ns - p.start_ns;
      auto& kind = totals.kinds[static_cast<std::size_t>(SpanKind::kProcess)];
      ++kind.count;
      kind.total_ns += dur;
      kind.self_ns += dur;
      if (p.nf_type < kNfTypeCount) {
        auto& type = totals.process[p.nf_type];
        ++type.count;
        type.total_ns += dur;
        type.self_ns += dur;
      }
      if (p.id < feed_of.size() && feed_of[p.id] != nullptr) {
        const Span& f = *feed_of[p.id];
        const u64 lo = std::max(f.start_ns, p.start_ns);
        const u64 hi = std::min(f.end_ns, p.end_ns);
        if (hi > lo) covers.push_back(Cover{p.id, lo, hi});
      }
    }
  }
  std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
    return a.id != b.id ? a.id < b.id : a.start < b.start;
  });
  u64 feed_covered = 0;
  for (std::size_t i = 0; i < covers.size();) {
    u64 lo = covers[i].start;
    u64 hi = covers[i].end;
    std::size_t j = i + 1;
    for (; j < covers.size() && covers[j].id == covers[i].id; ++j) {
      if (covers[j].start > hi) {
        feed_covered += hi - lo;
        lo = covers[j].start;
      }
      hi = std::max(hi, covers[j].end);
    }
    feed_covered += hi - lo;
    i = j;
  }
  child_ns[static_cast<std::size_t>(SpanKind::kFeed)] = feed_covered;

  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    if (static_cast<SpanKind>(k) == SpanKind::kProcess) continue;
    u64 self = 0;
    for (const Span& s : spans_) {
      if (static_cast<std::size_t>(s.kind) == k) self += s.end_ns - s.start_ns;
    }
    totals.kinds[k].self_ns += self >= child_ns[k] ? self - child_ns[k] : 0;
  }
}

void Tracer::write_csv(std::FILE* out, u64 epoch_ns, u64 max_packets) const {
  const auto rel = [epoch_ns](u64 t) {
    return static_cast<unsigned long long>(t >= epoch_ns ? t - epoch_ns : 0);
  };
  const auto per_packet = [](SpanKind k) {
    return k == SpanKind::kFeed || k == SpanKind::kAddRule ||
           k == SpanKind::kProcess;
  };
  const auto row = [&](const Span& s) {
    if (per_packet(s.kind) && s.id >= max_packets) return;
    std::string name = span_kind_name(s.kind);
    if (s.kind == SpanKind::kProcess && s.nf_type < kNfTypeCount) {
      name += std::string(":") + kNfTypes[s.nf_type];
    }
    const SpanKind parent = parent_of(s.kind);
    const u32 parent_id = parent == SpanKind::kFeed ? s.id : round_;
    if (parent == SpanKind::kCount) {
      std::fprintf(out, "%s,%u,,,%llu,%llu\n", name.c_str(), s.id,
                   rel(s.start_ns), rel(s.end_ns));
    } else {
      std::fprintf(out, "%s,%u,%s,%u,%llu,%llu\n", name.c_str(), s.id,
                   span_kind_name(parent), parent_id, rel(s.start_ns),
                   rel(s.end_ns));
    }
  };
  for (const Span& s : spans_) row(s);
  for (const auto& rec : nfs_) {
    for (const Span& s : rec->spans) row(s);
  }
}

}  // namespace perfbench
