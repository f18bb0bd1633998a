// Dataplane benchmark: live ShardedDataplane throughput, latency and set-up
// time on three workloads, with the outputs checked against a reference
// and, in a traced run, a per-layer ledger measured from outside.
//
//   nfp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//
// One feeding thread (this one) is the director: it calls feed() for
// every frame. A run alternates rounds until --seconds have passed; every
// round builds, starts, feeds and drains a fresh dataplane:
//   pps round      closed loop (feed() blocks on backpressure), tracing off;
//   latency round  open loop at the workload's fixed offered rate, with
//                  every packet's origin->delivery latency sampled;
//   traced round   (--trace 1) a pps round with spans around every call.
// End-to-end metrics summarize the rounds of untraced runs. The last
// stdout line is the result JSON; exit 1 means an output mismatch or a
// failed regime guard, exit 2 a usage or set-up error.
//
//   nfp_perfbench --self-test
//
// checks that the output oracle counts a corrupted, a missing and a
// duplicated frame on every workload's reference.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_affinity.hpp"
#include "dataplane/live_classifier.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/scalability_profiler.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace tm = nfp::telemetry;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: nfp_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n"
               "workloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// Quantile q of `v`, linearly interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The gated throughput and latency figures take the better quartile over
// a run's rounds. A stall of a shared host only ever makes a round look
// worse, and it hits whole rounds: some rounds of an otherwise quiet run
// read p90 latencies ten to thousands of times the rest. The better
// quartile moves only when three rounds in four are disturbed, while a
// change in the program's own speed moves every round.
double better_quartile(std::vector<double> v, bool higher_is_better) {
  return quantile(std::move(v), higher_is_better ? 0.75 : 0.25);
}

// Quantile of an HDR histogram, interpolated linearly by rank inside the
// bucket that holds it (bucket lower bounds alone would quantize every
// reading to 1/16 of its power of two).
double hdr_quantile_ns(const tm::HdrSnapshot& h, double q) {
  if (h.total == 0) return 0;
  const double target = q * static_cast<double>(h.total);
  double cum = 0;
  for (std::size_t b = 0; b < tm::kLatBuckets; ++b) {
    const double c = static_cast<double>(h.counts[b]);
    if (c == 0) continue;
    if (cum + c >= target) {
      const double lo = static_cast<double>(tm::latency_bucket_value(b));
      const double hi =
          b + 1 < tm::kLatBuckets
              ? static_cast<double>(tm::latency_bucket_value(b + 1))
              : lo;
      return lo + (hi - lo) * std::clamp((target - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return static_cast<double>(h.max());
}

double nth_quantile(std::vector<u64> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

DropCounts observed_drops(nfp::ShardedDataplane& dp) {
  DropCounts d{};
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const tm::ShardFlowSnapshot snap = dp.flow_snapshot(s);
    for (std::size_t r = 0; r < d.size(); ++r) d[r] += snap.drops[r];
  }
  return d;
}

// The director owns the allowed CPU right after the shard workers' (the
// last one if there are too few), and every thread it creates starts on the
// other CPUs: the library pins shard s to the s-th CPU of the mask a thread
// starts with, so the dataplane keeps its default placement on cores
// 0..shards-1 and never time-slices with the director, not even during
// set-up. Returns whether the director got its own CPU.
bool place_threads(std::size_t shards) {
  cpu_set_t others;
  CPU_ZERO(&others);
  if (sched_getaffinity(0, sizeof(others), &others) != 0 ||
      CPU_COUNT(&others) < 2) {
    return false;
  }
  int director = -1;
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &others)) continue;
    if (director < 0 || seen <= shards) director = cpu;
    ++seen;
  }
  CPU_CLR(director, &others);
  cpu_set_t own;
  CPU_ZERO(&own);
  CPU_SET(director, &own);
  pthread_attr_t attr;
  if (pthread_attr_init(&attr) != 0) return false;
  const bool ok =
      pthread_attr_setaffinity_np(&attr, sizeof(others), &others) == 0 &&
      pthread_setattr_default_np(&attr) == 0 &&
      pthread_setaffinity_np(pthread_self(), sizeof(own), &own) == 0;
  pthread_attr_destroy(&attr);
  return ok;
}

// Latency rounds rotate over disjoint windows of the frame set, so a run's
// latency samples cover every frame once instead of one prefix many times
// (on north-south the p50 sits between the frame-size modes and moves with
// the size mix of the frames sampled). Each window has its own reference:
// a fresh dataplane restarts every NF's state, such as the vpn's sequence.
struct LatWindow {
  LatWindow(FrameSet f, const nfp::ServiceGraph& graph,
            const std::vector<nfp::CtRule>& rules)
      : frames(std::move(f)),
        ref(build_reference(graph, frames, rules)),
        oracle(ref, frames.size()) {}
  FrameSet frames;
  Reference ref;
  Oracle oracle;
};

// Per-round latency figures of a run: the gated metrics take their better
// quartile, the diagnostics their median.
struct LatStats {
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> p99_us;
  std::vector<double> late_p99_us;  // feed start minus due time
  std::vector<double> achieved_frac;
};

struct Context {
  const Workload& w;
  const FrameSet& frames;
  const std::vector<nfp::CtRule>& rules;
  const std::string& policy_text;
  const Oracle& pps_oracle;
  const std::vector<std::unique_ptr<LatWindow>>& lat_windows;
};

constexpr int kSetupReps = 15;

// On a virtual machine the first touch of guest memory the host has not
// backed yet costs a host-side fault, whose price depends on what ran
// before. Touching and returning a block well above the dataplane's
// footprint first leaves the set-up block timing the dataplane's own page
// faults and initialization.
void prefault_memory() {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return;
  std::memset(p, 1, kBytes);
  munmap(p, kBytes);
}

struct Counters {
  u64 offered = 0;
  u64 failed = 0;
  bool affinity_applied = true;
};

// One set-up of an idle dataplane, drained and destroyed again. The
// set-up metrics come from a block of these, run back to back, so every
// repetition meets the allocator in the same state; after a traffic round
// the freed output buffers make the next set-up's cost swing.
SetupTimes time_setup(const Context& ctx) {
  Plane plane = set_up(ctx.w, ctx.policy_text, ctx.rules, {}, 0, nullptr, {});
  const nfp::ShardedResult res = plane.dp->drain();
  if (!res.status.is_ok() || !res.outputs.empty()) {
    std::fprintf(stderr, "perfbench: idle set-up did not drain cleanly\n");
    std::exit(2);
  }
  return plane.times;
}

struct PpsRound {
  double pps = 0;
  double drain_ms = 0;
  double wall_ns = 0;
  u64 mf_hits = 0;
  u64 mf_misses = 0;
  u64 busy_ns = 0;
  u64 received = 0;
  double imbalance = 0;
  std::array<u64, tm::kCycleBucketCount> attr_ns{};
};

void check_round(const Oracle& oracle, const nfp::ShardedResult& res,
                 nfp::ShardedDataplane& dp, Counters& counters,
                 const char* what) {
  const Mismatch m = oracle.check(res.outputs, observed_drops(dp));
  counters.offered += oracle.offered();
  counters.failed += m.failed();
  counters.affinity_applied = counters.affinity_applied &&
                              dp.affinity_applied();
  if (!res.status.is_ok() || m.failed() != 0) {
    std::fprintf(stderr,
                 "perfbench: %s round: %llu missing, %llu extra (status: "
                 "%s)\n",
                 what, static_cast<unsigned long long>(m.missing),
                 static_cast<unsigned long long>(m.extra),
                 res.status.is_ok() ? "ok" : res.status.message().c_str());
    if (!res.status.is_ok()) ++counters.failed;
  }
}

void maybe_add_rule(const Workload& w, nfp::ShardedDataplane& dp,
                    std::size_t i, std::size_t& next_rule, Tracer* tracer) {
  if (w.rule_update_every == 0 || i == 0 || i % w.rule_update_every != 0) {
    return;
  }
  const u64 t0 = tracer != nullptr ? now_ns() : 0;
  dp.add_rule(unmatched_rule(next_rule++));
  if (tracer != nullptr) tracer->add(SpanKind::kAddRule, i, t0, now_ns());
}

PpsRound run_pps_round(const Context& ctx, Counters& counters,
                       Tracer* tracer) {
  tm::ScalabilityProfilerOptions popts;
  popts.enable_hw = false;
  tm::ScalabilityProfiler profiler(popts);
  Plane plane = set_up(
      ctx.w, ctx.policy_text, ctx.rules,
      tracer != nullptr ? tracer->nf_factory()
                        : nfp::ShardedDataplane::NfFactory{},
      0, tracer,
      [&](nfp::ShardedDataplane& dp) { dp.register_scalability(profiler); });
  nfp::ShardedDataplane& dp = *plane.dp;
  profiler.reset_baseline();

  const std::size_t n = ctx.pps_oracle.offered();
  std::size_t next_rule = 0;
  const u64 t_first = now_ns();
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      maybe_add_rule(ctx.w, dp, i, next_rule, tracer);
      const u64 t0 = now_ns();
      dp.feed(ctx.frames[i]);
      tracer->add(SpanKind::kFeed, i, t0, now_ns());
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      maybe_add_rule(ctx.w, dp, i, next_rule, nullptr);
      dp.feed(ctx.frames[i]);
    }
  }
  const u64 t_drain = now_ns();
  const nfp::ShardedResult res = dp.drain();
  const u64 t_end = now_ns();
  if (tracer != nullptr) {
    tracer->add(SpanKind::kDrain, tracer->round(), t_drain, t_end);
    tracer->add(SpanKind::kRound, tracer->round(), t_first, t_end);
  }

  PpsRound r;
  r.wall_ns = static_cast<double>(t_end - t_first);
  r.pps = static_cast<double>(res.outputs.size() + res.dropped) /
          (r.wall_ns / 1e9);
  r.drain_ms = static_cast<double>(t_end - t_drain) / 1e6;
  r.mf_hits = dp.microflow_hits();
  r.mf_misses = dp.microflow_misses();
  u64 max_rx = 0;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    r.busy_ns += dp.shard_busy_ns(s);
    r.received += dp.shard_received(s);
    max_rx = std::max(max_rx, dp.shard_received(s));
  }
  const double mean_rx =
      static_cast<double>(r.received) / static_cast<double>(dp.shard_count());
  r.imbalance = mean_rx > 0 ? static_cast<double>(max_rx) / mean_rx : 0;
  const tm::ScalabilityReport rep = profiler.report();
  for (std::size_t b = 0; b < tm::kCycleBucketCount; ++b) {
    r.attr_ns[b] = rep.total.ns[b];
  }
  check_round(ctx.pps_oracle, res, dp, counters,
              tracer != nullptr ? "traced" : "pps");
  return r;
}

void run_lat_round(const Context& ctx, const LatWindow& win,
                   Counters& counters, LatStats& stats) {
  Plane plane = set_up(ctx.w, ctx.policy_text, ctx.rules, {},
                       /*latency_sample_every=*/1, nullptr, {});
  nfp::ShardedDataplane& dp = *plane.dp;

  const std::size_t n = win.frames.size();
  const double gap_ns = 1e9 / ctx.w.lat_rate_pps;
  std::size_t next_rule = 0;
  std::vector<u64> late(n);
  const u64 t0 = now_ns() + 100'000;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 due = t0 + static_cast<u64>(gap_ns * static_cast<double>(i));
    u64 t = now_ns();
    while (t < due) t = now_ns();
    late[i] = t - due;
    maybe_add_rule(ctx.w, dp, i, next_rule, nullptr);
    dp.feed(win.frames[i]);
  }
  const u64 t_fed = now_ns();
  const nfp::ShardedResult res = dp.drain();

  tm::HdrSnapshot total;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    total += dp.latency_snapshot(s).stage(tm::LatencyStage::kTotal);
  }
  if (total.count() != res.outputs.size()) {
    std::fprintf(stderr,
                 "perfbench: latency round sampled %llu of %zu delivered\n",
                 static_cast<unsigned long long>(total.count()),
                 res.outputs.size());
  }
  stats.p50_us.push_back(hdr_quantile_ns(total, 0.50) / 1e3);
  stats.p90_us.push_back(hdr_quantile_ns(total, 0.90) / 1e3);
  stats.p99_us.push_back(hdr_quantile_ns(total, 0.99) / 1e3);
  stats.late_p99_us.push_back(nth_quantile(std::move(late), 0.99) / 1e3);
  stats.achieved_frac.push_back(gap_ns * static_cast<double>(n) /
                                static_cast<double>(t_fed - t0));
  check_round(win.oracle, res, dp, counters, "latency");
}

// Metric values in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct Guards {
  bool ok = true;
  void check(bool cond, const std::string& what) {
    std::printf("guard %-58s %s\n", what.c_str(), cond ? "ok" : "FAILED");
    if (!cond) {
      std::fprintf(stderr, "perfbench: regime guard failed: %s\n",
                   what.c_str());
      ok = false;
    }
  }
};

// syn-churn must exercise the tuple-space walk: sampled frames must match
// masked rules, with verdicts agreeing with the LinearCtScan reference.
void guard_masked_hits(const FrameSet& frames,
                       const std::vector<nfp::CtRule>& rules, Guards& g) {
  nfp::LinearCtScan linear(1);
  linear.add_rules(rules);
  nfp::LiveClassificationTable ct(1);
  ct.add_rules(rules);
  std::size_t sampled = 0;
  std::size_t hits = 0;
  std::size_t agree = 0;
  const std::size_t step = std::max<std::size_t>(1, frames.size() / 2000);
  for (std::size_t i = 0; i < frames.size(); i += step) {
    const auto t = nfp::parse_five_tuple(frames[i]);
    if (!t) continue;
    ++sampled;
    hits += std::any_of(rules.begin(), rules.end(),
                        [&](const nfp::CtRule& r) { return r.matches(*t); });
    agree += linear.classify(*t) == ct.classify(*t);
  }
  const double hit_frac =
      sampled > 0 ? static_cast<double>(hits) / static_cast<double>(sampled)
                  : 0;
  char what[128];
  std::snprintf(what, sizeof what,
                "syn-churn frames hit masked rules (%.4f of %zu)", hit_frac,
                sampled);
  g.check(hit_frac >= 0.99, what);
  g.check(agree == sampled, "tuple-space verdicts match LinearCtScan");
}

void print_metric(const char* name, double value, const char* unit) {
  std::printf("metric %-24s %.17g %s\n", name, value, unit);
}

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;
  const std::size_t online = nfp::online_cpu_count();

  const bool feeder_pinned = place_threads(w.shards);

  // Inputs and the reference are built untimed, before the first round.
  const FrameSet frames = make_frames(w, w.frames, args.seed);
  const std::vector<nfp::CtRule> rules = make_ct_rules(w);
  const std::string policy_text = read_policy_text(w);
  const nfp::ServiceGraph graph =
      w.policy_file.empty() ? w.graph : compile_graph(policy_text);
  const Reference ref = build_reference(graph, frames, rules);
  if (!oracle_self_test(ref)) {
    std::fprintf(stderr, "perfbench: oracle self-test failed\n");
    return 2;
  }
  const Oracle pps_oracle(ref, w.pps_round_packets);
  std::vector<std::unique_ptr<LatWindow>> lat_windows;
  for (std::size_t b = 0; b + w.lat_round_packets <= frames.size();
       b += w.lat_round_packets) {
    FrameSet window;
    for (std::size_t i = b; i < b + w.lat_round_packets; ++i) {
      window.push(frames[i]);
    }
    lat_windows.push_back(
        std::make_unique<LatWindow>(std::move(window), graph, rules));
  }
  const Context ctx{w, frames, rules, policy_text, pps_oracle, lat_windows};

  Guards guards;
  guards.check(graph.structure() == w.structure,
               w.name + " graph structure is " + w.structure + " (got " +
                   graph.structure() + ")");
  if (w.churn) guard_masked_hits(frames, rules, guards);

  IsolatedCosts iso;
  if (args.trace) iso = measure_isolated(frames, rules);

  Counters counters;
  // Fixed allocator thresholds replace glibc's adaptive ones, whose state
  // depends on what earlier rounds happened to free. For the set-up block
  // every large block (packet pools) is a fresh mapping, so each set-up
  // pays the page faults a set-up in a fresh process pays. For the traffic
  // rounds freed memory is kept and reused, so no round pays page faults
  // inside its timed window.
  prefault_memory();
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(time_setup(ctx));
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1024 * 1024 * 1024);

  // Alternate round kinds until the time budget is spent (at least three
  // of each), so slow drifts of the host hit every kind alike.
  std::vector<PpsRound> pps_rounds;
  std::vector<PpsRound> traced_rounds;
  LatStats lat;
  std::size_t lat_rounds = 0;
  TraceTotals totals;
  std::unique_ptr<Tracer> last_tracer;
  u64 traced_packets = 0;
  const u64 epoch = now_ns();
  const u64 budget_ns = static_cast<u64>(args.seconds * 1e9);
  u32 round = 0;
  while (now_ns() - epoch < budget_ns || lat_rounds < 3) {
    pps_rounds.push_back(run_pps_round(ctx, counters, nullptr));
    if (args.trace) {
      auto tracer =
          std::make_unique<Tracer>(round++, pps_oracle.offered());
      traced_rounds.push_back(run_pps_round(ctx, counters, tracer.get()));
      tracer->fold_into(totals);
      traced_packets += pps_oracle.offered();
      last_tracer = std::move(tracer);
    }
    run_lat_round(ctx, *lat_windows[lat_rounds % lat_windows.size()],
                  counters, lat);
    ++lat_rounds;
  }

  const auto med = [](const auto& rounds, auto field) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(field(r));
    return median(v);
  };
  const auto setup_med = [&](auto field) {
    return med(setups, field);
  };
  const auto round_pps = [](const std::vector<PpsRound>& rounds) {
    std::vector<double> v;
    for (const PpsRound& r : rounds) v.push_back(r.pps);
    return better_quartile(std::move(v), /*higher_is_better=*/true);
  };
  const double pps = round_pps(pps_rounds);
  const double setup_s = setup_med([](const SetupTimes& t) {
    return t.total();
  });
  const double err_frac = static_cast<double>(counters.failed) /
                          static_cast<double>(counters.offered);
  const double achieved = median(lat.achieved_frac);
  u64 hits = 0;
  u64 misses = 0;
  for (const PpsRound& r : pps_rounds) {
    hits += r.mf_hits;
    misses += r.mf_misses;
  }
  const double mf_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0;
  if (w.name == "small-par4") {
    guards.check(mf_hit_rate >= 0.99, "small-par4 microflow hit rate >= 0.99");
  }
  if (w.churn) {
    guards.check(mf_hit_rate <= 0.01, "syn-churn microflow hit rate <= 0.01");
  }
  guards.check(achieved >= 0.99, "open-loop gen.achieved_frac >= 0.99");

  Metrics m;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  if (!args.trace) {
    put("pps", pps, "packets/s");
    put("lat_p50_us", better_quartile(lat.p50_us, false), "us");
    put("lat_p90_us", better_quartile(lat.p90_us, false), "us");
    put("setup_s", setup_s, "s");
  } else {
    u64 feed_ns = totals.kinds[static_cast<std::size_t>(SpanKind::kFeed)]
                      .total_ns;
    u64 feeds = totals.kinds[static_cast<std::size_t>(SpanKind::kFeed)].count;
    put("director.feed_ns",
        feeds > 0 ? static_cast<double>(feed_ns) / static_cast<double>(feeds)
                  : 0,
        "ns");
    put("director.busy_share",
        totals.round_wall_ns > 0 ? static_cast<double>(feed_ns) /
                                       static_cast<double>(totals.round_wall_ns)
                                 : 0,
        "ratio");

    double busy = 0;
    double wall = 0;
    double received = 0;
    std::array<double, tm::kCycleBucketCount> attr{};
    for (const PpsRound& r : pps_rounds) {
      busy += static_cast<double>(r.busy_ns);
      wall += r.wall_ns * static_cast<double>(w.shards);
      received += static_cast<double>(r.received);
      for (std::size_t b = 0; b < attr.size(); ++b) {
        attr[b] += static_cast<double>(r.attr_ns[b]);
      }
    }
    double attr_total = 0;
    for (const double a : attr) attr_total += a;
    const double shard_ns_per_pkt = received > 0 ? busy / received : 0;
    put("shard.busy_share", wall > 0 ? busy / wall : 0, "ratio");
    put("shard.ns_per_pkt", shard_ns_per_pkt, "ns");
    put("shard.imbalance",
        med(pps_rounds, [](const PpsRound& r) { return r.imbalance; }),
        "ratio");
    const auto share = [&](tm::CycleBucket b) {
      return attr_total > 0 ? attr[static_cast<std::size_t>(b)] / attr_total
                            : 0;
    };
    put("attr.useful", share(tm::CycleBucket::kUseful), "ratio");
    put("attr.starved", share(tm::CycleBucket::kStarved), "ratio");
    put("attr.ring_wait", share(tm::CycleBucket::kRingWait), "ratio");
    put("attr.merge_wait", share(tm::CycleBucket::kMergeWait), "ratio");
    put("attr.pool_wait", share(tm::CycleBucket::kPoolWait), "ratio");
    put("attr.classifier_miss", share(tm::CycleBucket::kClassifierMiss),
        "ratio");
    put("classifier.mf_hit_rate", mf_hit_rate, "ratio");
    put("classifier.mf_ns", iso.mf_ns, "ns");
    put("classifier.ct_ns", iso.ct_ns, "ns");
    put("classifier.rule_update_ms", iso.rule_update_ms, "ms");

    // NF cost per packet: mean in-situ process() time weighted by calls.
    double nf_ns_per_pkt = 0;
    std::array<double, kNfTypeCount> nf_ns{};
    for (std::size_t t = 0; t < kNfTypeCount; ++t) {
      const auto& layer = totals.process[t];
      nf_ns[t] = layer.count > 0 ? static_cast<double>(layer.total_ns) /
                                       static_cast<double>(layer.count)
                                 : 0;
      if (traced_packets > 0) {
        nf_ns_per_pkt += static_cast<double>(layer.total_ns) /
                         static_cast<double>(traced_packets);
      }
    }
    for (std::size_t t = 0; t < kNfTypeCount; ++t) {
      put(std::string("nf.") + kNfTypes[t] + ".ns", nf_ns[t], "ns");
    }
    for (std::size_t t = 0; t < kNfTypeCount; ++t) {
      put(std::string("nf.") + kNfTypes[t] + ".calls",
          static_cast<double>(totals.process[t].count), "count");
    }
    put("packet.copy_ns", iso.copy_ns, "ns");
    put("merge.ns", iso.merge_ns, "ns");
    put("ring.hop_ns", iso.ring_hop_ns, "ns");
    put("egress.drain_ms",
        med(pps_rounds, [](const PpsRound& r) { return r.drain_ms; }), "ms");
    put("orch.compile_us",
        setup_med([](const SetupTimes& t) { return t.compile_s; }) * 1e6,
        "us");
    put("setup.ct_install_ms",
        setup_med([](const SetupTimes& t) { return t.ct_install_s; }) * 1e3,
        "ms");
    put("setup.start_ms",
        setup_med([](const SetupTimes& t) { return t.start_s; }) * 1e3, "ms");
    put("lat_p99_us", median(lat.p99_us), "us");
    put("gen.late_p99_us", median(lat.late_p99_us), "us");
    put("gen.achieved_frac", achieved, "ratio");
    const double traced_pps = round_pps(traced_rounds);
    put("trace.overhead", traced_pps > 0 ? pps / traced_pps - 1 : 0, "ratio");
    // Per-packet layer costs against the shard worker's busy time per
    // packet: copies and merges weighted by how often a packet takes them.
    std::size_t parallel_segments = 0;
    for (const nfp::Segment& seg : graph.segments()) {
      parallel_segments += seg.is_parallel() ? 1 : 0;
    }
    const double ledger =
        iso.mf_ns + nf_ns_per_pkt +
        iso.copy_ns * static_cast<double>(graph.copies_per_packet()) +
        iso.merge_ns * static_cast<double>(parallel_segments) +
        iso.ring_hop_ns;
    put("ledger.closure",
        shard_ns_per_pkt > 0 ? ledger / shard_ns_per_pkt : 0, "ratio");

    if (!w.policy_file.empty()) {
      const double vpn_ns = nf_ns[kNfTypeCount - 1];
      guards.check(vpn_ns > 0 && vpn_ns == *std::max_element(nf_ns.begin(),
                                                             nf_ns.end()),
                   "north-south nf.vpn.ns is the largest NF cost");
    }

    std::printf("self_time %-18s %10s %14s %14s %12s\n", "layer", "spans",
                "total_ms", "self_ms", "self_ns/span");
    const auto self_row = [](const std::string& name,
                             const TraceTotals::Layer& l) {
      if (l.count == 0) return;
      std::printf("self_time %-18s %10llu %14.3f %14.3f %12.1f\n",
                  name.c_str(), static_cast<unsigned long long>(l.count),
                  static_cast<double>(l.total_ns) / 1e6,
                  static_cast<double>(l.self_ns) / 1e6,
                  static_cast<double>(l.self_ns) /
                      static_cast<double>(l.count));
    };
    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
      if (static_cast<SpanKind>(k) == SpanKind::kProcess) continue;
      self_row(span_kind_name(static_cast<SpanKind>(k)), totals.kinds[k]);
    }
    for (std::size_t t = 0; t < kNfTypeCount; ++t) {
      self_row(std::string("process:") + kNfTypes[t], totals.process[t]);
    }
  }

  if (last_tracer != nullptr && !args.spans_path.empty()) {
    if (std::FILE* f = std::fopen(args.spans_path.c_str(), "w")) {
      std::fprintf(f, "name,id,parent,parent_id,start_ns,end_ns\n");
      last_tracer->write_csv(f, epoch, 8192);
      std::fclose(f);
      std::printf("spans written to %s (last traced round; per-packet spans "
                  "of its first 8192 packets)\n",
                  args.spans_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    }
  }

  std::printf("rounds pps=%zu traced=%zu latency=%zu\n", pps_rounds.size(),
              traced_rounds.size(), lat_rounds);
  std::printf("meta {\"workload\":\"%s\",\"seed\":%llu,\"online_cpus\":%zu,"
              "\"affinity_applied\":%s,\"feeder_pinned\":%s,"
              "\"build_type\":\"%s\"}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              online, counters.affinity_applied ? "true" : "false",
              feeder_pinned ? "true" : "false", PERFBENCH_BUILD_TYPE);
  // err_frac is 0 on a correct build, so it is reported here and as the
  // result's failed/attempted counts rather than as a gated metric.
  print_metric("err_frac", err_frac, "ratio");
  for (const auto& [name, vu] : m) {
    print_metric(name.c_str(), vu.first, vu.second.c_str());
  }

  const bool correct = counters.failed == 0 && guards.ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(counters.offered),
              static_cast<unsigned long long>(counters.failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.first,
                m[i].second.second.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace

// The oracle self-test on every workload's own reference frames.
int self_test() {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const Workload& w = *find_workload(name);
    const FrameSet frames = make_frames(w, 256, 1);
    const std::vector<nfp::CtRule> rules = make_ct_rules(w);
    const nfp::ServiceGraph graph =
        w.policy_file.empty() ? w.graph : compile_graph(read_policy_text(w));
    const bool pass = oracle_self_test(build_reference(graph, frames, rules));
    std::printf("oracle self-test %-12s %s\n", name.c_str(),
                pass ? "ok" : "FAILED");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::self_test();
  }
  return perfbench::run(perfbench::parse_args(argc, argv));
}
