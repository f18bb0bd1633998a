// nfp_cli: command-line front end to the orchestrator (compile, tables, dot,
// plan, stats), the simulated dataplane (run, profile) and the sharded live
// dataplane on real threads (live, scalability, latency, flows), plus `top`,
// a terminal dashboard over a `--serve`'d run.
//
// Every subcommand declares its flags once, as an option table; `nfp_cli`
// without arguments prints the usage generated from those tables. Policy
// files use the text format of src/policy/parser.hpp.
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "baseline/onv_dataplane.hpp"
#include "baseline/rtc_dataplane.hpp"
#include "cluster/partition.hpp"
#include "common/cpu_affinity.hpp"
#include "common/json.hpp"
#include "dataplane/nfp_dataplane.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "orch/compiler.hpp"
#include "orch/pair_stats.hpp"
#include "orch/table_gen.hpp"
#include "policy/parser.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/health_sampler.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/scalability_profiler.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/timeseries.hpp"
#include "dataplane/tuple_space_classifier.hpp"
#include "trafficgen/scenarios.hpp"
#include "trafficgen/trafficgen.hpp"

namespace {

using namespace nfp;

// --- option tables -------------------------------------------------------

// One row of a subcommand's option table: a bare `--name` (kSwitch) or
// `--name=value`. parse_flags() walks argv against the rows and usage()
// prints them, so each flag is declared exactly once.
struct Flag {
  enum Kind { kU64, kPort, kEnum, kList, kSwitch };
  const char* name;
  Kind kind;
  std::variant<u64*, std::optional<u64>*, std::string*,
               std::vector<std::size_t>*, bool*>
      target;
  u64 min = 0;                            // kU64 and every kList entry
  std::vector<std::string> choices = {};  // kEnum
};
using Flags = std::vector<Flag>;

// A whole decimal string: no sign, blank, trailing byte or overflow.
std::optional<u64> parse_u64(std::string_view text) {
  u64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

// Stores `value` through `flag`; false when it is malformed or out of range.
bool assign(const Flag& flag, std::string_view value) {
  switch (flag.kind) {
    case Flag::kSwitch:
      *std::get<bool*>(flag.target) = true;
      return true;
    case Flag::kU64:
    case Flag::kPort: {
      const auto v = parse_u64(value);
      if (!v || *v < flag.min || (flag.kind == Flag::kPort && *v > 65535)) {
        return false;
      }
      if (auto* t = std::get_if<u64*>(&flag.target)) {
        **t = *v;
      } else {
        *std::get<std::optional<u64>*>(flag.target) = *v;
      }
      return true;
    }
    case Flag::kEnum:
      if (std::ranges::find(flag.choices, value) == flag.choices.end()) {
        return false;
      }
      *std::get<std::string*>(flag.target) = std::string(value);
      return true;
    case Flag::kList: {
      std::vector<std::size_t> items;
      for (std::size_t start = 0;;) {
        const std::size_t comma = value.find(',', start);
        const auto v = parse_u64(value.substr(start, comma - start));
        if (!v || *v < flag.min) return false;
        items.push_back(static_cast<std::size_t>(*v));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
      *std::get<std::vector<std::size_t>*>(flag.target) = std::move(items);
      return true;
    }
  }
  return false;
}

// The value placeholder usage() and parse errors show.
std::string value_syntax(const Flag& flag) {
  switch (flag.kind) {
    case Flag::kU64: return "N";
    case Flag::kPort: return "PORT";
    case Flag::kList: return "N,N,...";
    case Flag::kSwitch: return "";
    case Flag::kEnum: break;
  }
  std::string out;
  for (const std::string& c : flag.choices) {
    out += (out.empty() ? "" : "|") + c;
  }
  return out;
}

// Parses argv[first..]: every argument must name a row of `flags`, with a
// value exactly when the row takes one. Prints the offending argument and
// returns false otherwise; the caller then prints usage and exits 2.
bool parse_flags(const Flags& flags, int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string_view::npos;
    const auto row = std::ranges::find_if(flags, [&](const Flag& f) {
      return arg.substr(0, eq) == f.name &&
             has_value == (f.kind != Flag::kSwitch);
    });
    if (row == flags.end()) {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return false;
    }
    if (!assign(*row, has_value ? arg.substr(eq + 1) : "")) {
      const std::string min =
          row->min > 0 ? " with N >= " + std::to_string(row->min) : "";
      std::fprintf(stderr, "bad value in '%s': want %s=%s%s\n", argv[i],
                   row->name, value_syntax(*row).c_str(), min.c_str());
      return false;
    }
  }
  return true;
}

// The simulated dataplane (run, profile): one wave of `packets` frames at
// `rate` pps, or with --serve a fresh wave every ~200ms.
struct SimArgs {
  u64 packets = 2'000;
  u64 rate = 10'000;
  u64 size = 128;
  u64 serve = 0;
  bool json = false;
};

struct RunArgs : SimArgs {
  bool metrics = false;
  bool prometheus = false;
  u64 trace_every = 0;
  Flags flags() {
    return {{"--metrics", Flag::kSwitch, &metrics},
            {"--trace-every", Flag::kU64, &trace_every},
            {"--json", Flag::kSwitch, &json},
            {"--prometheus", Flag::kSwitch, &prometheus},
            {"--packets", Flag::kU64, &packets},
            {"--rate", Flag::kU64, &rate},
            {"--size", Flag::kU64, &size},
            {"--serve", Flag::kPort, &serve}};
  }
};

struct ProfileArgs : SimArgs {
  std::string plane = "nfp";
  u64 trace_every = 1;
  bool watch = false;  // bare --watch: interim lines every 10ms
  u64 watch_ms = 0;
  Flags flags() {
    return {{"--plane", Flag::kEnum, &plane, 0, {"nfp", "onv", "rtc"}},
            {"--packets", Flag::kU64, &packets},
            {"--rate", Flag::kU64, &rate},
            {"--size", Flag::kU64, &size},
            {"--trace-every", Flag::kU64, &trace_every, 1},
            {"--json", Flag::kSwitch, &json},
            {"--watch", Flag::kSwitch, &watch},
            {"--watch", Flag::kU64, &watch_ms},
            {"--serve", Flag::kPort, &serve}};
  }
};

struct TopArgs {
  u64 port = 9100;
  u64 interval = 1000;
  u64 iterations = 0;  // 0 = until Ctrl-C
  Flags flags() {
    return {{"--port", Flag::kPort, &port},
            {"--interval", Flag::kU64, &interval},
            {"--iterations", Flag::kU64, &iterations}};
  }
};

// What the live commands share: the generated traffic they feed (`packets`
// frames of `size` bytes over `flows` 5-tuples with uniform or zipf
// popularity), --mode and --json.
struct TrafficArgs {
  u64 packets = 20'000;
  u64 flows = 64;
  u64 size = 256;
  std::string skew = "uniform";
  std::string mode = "auto";
  bool json = false;
  Flag mode_flag() {
    return {"--mode", Flag::kEnum, &mode, 0, {"pipelined", "rtc", "auto"}};
  }
  Flags with_traffic(std::initializer_list<Flag> rest) {
    Flags out = {{"--packets", Flag::kU64, &packets, 1},
                 {"--flows", Flag::kU64, &flows, 1},
                 {"--size", Flag::kU64, &size},
                 {"--skew", Flag::kEnum, &skew, 0, {"uniform", "zipf"}}};
    out.insert(out.end(), rest);
    return out;
  }
};

struct LiveArgs : TrafficArgs {
  u64 shards = 0;  // 0 = one per online CPU
  u64 serve = 0;
  u64 rules = 0;
  std::optional<u64> lat_every;  // default 8 under --serve, off otherwise
  std::string scenario;
  Flags flags() {
    return with_traffic({{"--shards", Flag::kU64, &shards},
                         {"--serve", Flag::kPort, &serve},
                         mode_flag(),
                         {"--scenario", Flag::kEnum, &scenario, 0,
                          scenario_names()},
                         {"--rules", Flag::kU64, &rules},
                         {"--lat-every", Flag::kU64, &lat_every}});
  }
};

struct ScalabilityArgs : TrafficArgs {
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  Flags flags() {
    return with_traffic({{"--shards", Flag::kList, &shard_counts, 1},
                         {"--json", Flag::kSwitch, &json},
                         mode_flag()});
  }
};

struct LatencyArgs : TrafficArgs {
  u64 shards = 2;
  u64 sample_every = 8;
  Flags flags() {
    return with_traffic({{"--shards", Flag::kU64, &shards, 1},
                         {"--sample-every", Flag::kU64, &sample_every, 1},
                         {"--json", Flag::kSwitch, &json},
                         mode_flag()});
  }
};

struct FlowsArgs : TrafficArgs {
  FlowsArgs() {
    packets = 50'000;
    flows = 256;
    skew = "zipf";
  }
  u64 shards = 2;
  u64 top = 10;
  u64 pool = 0;  // != 0: N-slot tail-drop ingest (overload demo)
  Flags flags() {
    return with_traffic({{"--shards", Flag::kU64, &shards},
                         {"--top", Flag::kU64, &top, 1},
                         {"--pool", Flag::kU64, &pool},
                         {"--json", Flag::kSwitch, &json}});
  }
};

// `nfp_cli <command> [flags]` wrapped at 80 columns.
void print_synopsis(const char* command, const Flags& flags) {
  std::string line = std::string("       nfp_cli ") + command;
  for (const Flag& f : flags) {
    std::string item = std::string(" [") + f.name;
    if (f.kind != Flag::kSwitch) item += "=" + value_syntax(f);
    item += "]";
    if (line.size() + item.size() > 79) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line = "               ";
    }
    line += item;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: nfp_cli compile|tables|dot <policy-file>\n"
               "       nfp_cli plan <policy-file> [cores]\n"
               "       nfp_cli stats\n");
  print_synopsis("run <policy-file>", RunArgs().flags());
  print_synopsis("profile <policy-file>", ProfileArgs().flags());
  print_synopsis("live <policy-file>", LiveArgs().flags());
  print_synopsis("top", TopArgs().flags());
  print_synopsis("scalability [policy-file]", ScalabilityArgs().flags());
  print_synopsis("latency [policy-file]", LatencyArgs().flags());
  print_synopsis("flows [policy-file]", FlowsArgs().flags());
  return 2;
}

// --- serving -------------------------------------------------------------

// --serve / top run until interrupted.
volatile std::sig_atomic_t g_stop = 0;
void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handler() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

// Sleeps `ms` in short slices so Ctrl-C stays responsive.
void interruptible_sleep_ms(u64 ms) {
  while (ms > 0 && g_stop == 0) {
    const u64 slice = ms < 50 ? ms : 50;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

struct ServeHooks {
  // Runs wave n. The serve mutex is held by the collector and the HTTP
  // handlers; a wave that creates series or records spans takes it too.
  std::function<void(u64 wave, std::mutex& mu)> wave;
  // Adds derived series to the collector before it starts.
  std::function<void(telemetry::TimeseriesCollector&)> probes;
  // Announces the bound port.
  std::function<void(unsigned port)> banner;
  telemetry::HealthSampler* sampler = nullptr;  // runs while serving
};

// Serves the standard endpoints over `sources` plus a 500ms timeseries
// collector on 127.0.0.1:port, running a wave every ~200ms until SIGINT or
// SIGTERM. The first wave runs before the server comes up: it primes every
// metric series, so probes can discover components, and seeds the tracer.
int serve(telemetry::MetricsRegistry& registry,
          telemetry::EndpointSources sources, u64 port,
          const ServeHooks& hooks) {
  std::mutex mu;
  hooks.wave(0, mu);

  telemetry::TimeseriesCollector::Options ts_options;
  ts_options.period_ms = 500;
  telemetry::TimeseriesCollector collector(registry, ts_options);
  collector.publish_derived(&registry);
  collector.set_mutex(&mu);
  hooks.probes(collector);

  telemetry::StatsServer server;
  sources.registry = &registry;
  sources.timeseries = &collector;
  sources.mu = &mu;
  telemetry::register_standard_endpoints(server, sources);
  telemetry::StatsServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(port);
  if (const Status started = server.start(server_options); !started) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  hooks.banner(server.port());
  std::fflush(stdout);

  install_stop_handler();
  if (hooks.sampler != nullptr) hooks.sampler->start();
  collector.start();
  u64 waves = 1;
  while (g_stop == 0) {
    hooks.wave(waves++, mu);
    interruptible_sleep_ms(200);
  }
  collector.stop();
  if (hooks.sampler != nullptr) hooks.sampler->stop();
  server.stop();
  std::printf("\nstopped after %llu waves; served %llu requests\n",
              static_cast<unsigned long long>(waves),
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

// Pass-all firewalls: synthetic ACL rules would drop traffic-dependent
// subsets of the flows and obscure the per-component view.
std::unique_ptr<NetworkFunction> pass_all_factory(const StageNf& nf) {
  if (nf.name == "firewall") {
    AclTable acl;
    acl.set_default_action(AclAction::kPass);
    return std::make_unique<Firewall>(std::move(acl));
  }
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
}

// The graph's NFs as one sequential chain: the ONV/RTC view of a policy.
std::vector<std::string> nf_chain(const ServiceGraph& graph) {
  std::vector<std::string> chain;
  for (const Segment& seg : graph.segments()) {
    for (const StageNf& nf : seg.nfs) chain.push_back(nf.name);
  }
  return chain;
}

// --- nfp_cli run / profile: the simulated dataplane ----------------------

// Whichever simulated dataplane run/profile built, seen through what a
// traffic wave and the serve loop need.
struct SimPlane {
  sim::Simulator* sim = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;  // null disables /profile + /trace
  telemetry::FlightRecorder* recorder = nullptr;
  PacketPool* pool = nullptr;
  std::function<void(Packet*)> inject;
  std::function<void()> snapshot;  // refresh point-in-time gauges
};

template <class Dataplane>
SimPlane sim_plane(sim::Simulator& sim, Dataplane& dp,
                   telemetry::FlightRecorder* recorder) {
  return {&sim, &dp.metrics(), dp.tracer(), recorder, &dp.pool(),
          [&dp](Packet* p) { dp.inject(p); },
          [&dp] { dp.snapshot_metrics(); }};
}

// Injects wave n (seed 42 + n, so flows vary across waves) and runs the
// simulator dry; `before_run` schedules extra events first.
void run_wave(const SimPlane& plane, const SimArgs& a, u64 wave,
              const std::function<void()>& before_run = {}) {
  TrafficConfig traffic;
  traffic.fixed_size = static_cast<std::size_t>(a.size);
  traffic.rate_pps = static_cast<double>(a.rate);
  traffic.packets = a.packets;
  traffic.seed = 42 + wave;
  traffic.metrics = plane.metrics;
  TrafficGenerator gen(*plane.sim, *plane.pool, traffic);
  gen.start([&](Packet* p) { plane.inject(p); });
  if (before_run) before_run();
  plane.sim->run();
  plane.snapshot();
}

// One critical-path report per collector tick feeds both the merge-wait
// share and the per-NF bottleneck shares (probes run in registration order,
// so the cache-refreshing probe goes first).
void add_critical_path_probes(telemetry::TimeseriesCollector& collector,
                              const telemetry::Tracer& tracer,
                              const telemetry::MetricsRegistry& metrics) {
  auto shares = std::make_shared<std::map<std::string, double>>();
  collector.add_probe("merge_wait_share", {}, [&tracer, shares] {
    const telemetry::CriticalPathReport rep =
        telemetry::CriticalPathProfiler(tracer).report();
    shares->clear();
    for (const telemetry::NfShare& nf : rep.nfs) {
      (*shares)[nf.component] = rep.bottleneck_share(nf);
    }
    return rep.stage_fraction(telemetry::Stage::kMergeWait);
  });
  std::vector<std::string> components;
  for (const auto& [key, h] : metrics.histograms()) {
    if (key.name != "nf_service_ns") continue;
    for (const auto& [k, v] : key.labels) {
      if (k == "nf") components.push_back(v);
    }
  }
  std::sort(components.begin(), components.end());
  components.erase(std::unique(components.begin(), components.end()),
                   components.end());
  for (const std::string& component : components) {
    collector.add_probe("bottleneck_share", {{"nf", component}},
                        [shares, component] {
                          const auto it = shares->find(component);
                          return it == shares->end() ? 0.0 : it->second;
                        });
  }
}

// run/profile --serve: a fresh wave every ~200ms with the observability
// plane live. Waves hold the serve mutex: they are the only structural
// mutator of the registry and the tracer ring.
int serve_sim(const SimPlane& plane, const SimArgs& a) {
  telemetry::Watchdog watchdog(*plane.recorder);
  watchdog.set_registry(plane.metrics);
  watchdog.watch_drop_counter("dataplane", [metrics = plane.metrics] {
    u64 total = 0;
    for (const auto& [key, c] : metrics->counters()) {
      if (key.name == "packets_dropped_total") total += c.value.load();
    }
    return total;
  });
  watchdog.watch_pool("pool", [pool = plane.pool] { return pool->in_use(); },
                      plane.pool->capacity());

  telemetry::EndpointSources sources;
  sources.tracer = plane.tracer;
  sources.recorder = plane.recorder;
  sources.watchdog = &watchdog;
  ServeHooks hooks;
  hooks.wave = [&](u64 wave, std::mutex& mu) {
    std::lock_guard<std::mutex> lock(mu);
    run_wave(plane, a, wave);
    watchdog.evaluate();
  };
  hooks.probes = [&](telemetry::TimeseriesCollector& collector) {
    if (plane.tracer != nullptr) {
      add_critical_path_probes(collector, *plane.tracer, *plane.metrics);
    }
  };
  hooks.banner = [](unsigned port) {
    std::printf(
        "serving on http://127.0.0.1:%u — /metrics /metrics.json "
        "/timeseries.json\n/profile.json /recorder.json /trace.json "
        "/healthz — Ctrl-C to stop\n",
        port);
  };
  return serve(*plane.metrics, sources, a.serve, hooks);
}

int run_command(const ServiceGraph& graph, int argc, char** argv) {
  RunArgs a;
  if (!parse_flags(a.flags(), argc, argv, 3)) return usage();
  // Serve mode wants live /profile.json and /trace.json; default the
  // tracer on (sampled) when the caller didn't choose a rate.
  if (a.serve != 0 && a.trace_every == 0) a.trace_every = 16;

  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.trace_every = a.trace_every;
  cfg.factory = pass_all_factory;
  NfpDataplane dp(sim, graph, std::move(cfg));
  const SimPlane plane = sim_plane(sim, dp, &dp.flight_recorder());
  if (a.serve != 0) return serve_sim(plane, a);
  run_wave(plane, a, 0);

  const DataplaneStats& stats = dp.stats();
  std::printf("ran %llu packets through '%s' (%s): delivered=%llu "
              "dropped_nf=%llu dropped_pool=%llu\n",
              static_cast<unsigned long long>(stats.injected),
              graph.name().c_str(), graph.structure().c_str(),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped_by_nf),
              static_cast<unsigned long long>(stats.dropped_pool));
  if (a.metrics) {
    std::printf("\n%s", telemetry::component_report(dp.metrics()).c_str());
  }
  if (a.prometheus) {
    std::printf("\n%s", telemetry::to_prometheus(dp.metrics()).c_str());
  }
  if (a.json) {
    std::printf("%s\n", telemetry::to_json(dp.metrics()).c_str());
  }
  if (dp.tracer() != nullptr) {
    const auto pids = dp.tracer()->pids();
    if (pids.empty()) {
      std::printf("\ntracer retained no spans\n");
    } else {
      std::printf("\n%s", dp.tracer()->timeline(pids.front()).c_str());
      std::printf("(%llu spans recorded over %zu traced packets; "
                  "`--trace-every=%llu`)\n",
                  static_cast<unsigned long long>(dp.tracer()->recorded()),
                  pids.size(),
                  static_cast<unsigned long long>(dp.tracer()->every()));
    }
  }
  return 0;
}

int profile_command(const ServiceGraph& graph, int argc, char** argv) {
  ProfileArgs a;
  if (!parse_flags(a.flags(), argc, argv, 3)) return usage();
  if (a.watch && a.watch_ms == 0) a.watch_ms = 10;

  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.trace_every = a.trace_every;
  // Retain every span of every sampled packet: attribution needs complete
  // per-packet span sets, so size the ring past eviction.
  cfg.trace_capacity =
      static_cast<std::size_t>(a.packets / a.trace_every + 1) * 64;
  cfg.factory = pass_all_factory;

  // ONV/RTC run the graph's NFs as one sequential chain. Neither has a
  // flight recorder of its own; a local ring keeps the watchdog's
  // /recorder.json and post-mortems working.
  const std::vector<std::string> chain = nf_chain(graph);
  std::unique_ptr<NfpDataplane> nfp_dp;
  std::unique_ptr<baseline::OnvDataplane> onv_dp;
  std::unique_ptr<baseline::RtcDataplane> rtc_dp;
  telemetry::FlightRecorder local_recorder;
  SimPlane plane;
  if (a.plane == "nfp") {
    nfp_dp = std::make_unique<NfpDataplane>(sim, graph, std::move(cfg));
    plane = sim_plane(sim, *nfp_dp, &nfp_dp->flight_recorder());
  } else if (a.plane == "onv") {
    onv_dp = std::make_unique<baseline::OnvDataplane>(sim, chain,
                                                      std::move(cfg));
    plane = sim_plane(sim, *onv_dp, &local_recorder);
  } else {
    rtc_dp = std::make_unique<baseline::RtcDataplane>(
        sim, chain, chain.size() + 2, std::move(cfg));
    plane = sim_plane(sim, *rtc_dp, &local_recorder);
  }
  if (a.serve != 0) return serve_sim(plane, a);

  // --watch: interim bottleneck lines on the simulated clock.
  const SimTime watch_ns = static_cast<SimTime>(a.watch_ms) * 1'000'000;
  std::function<void()> watch_tick = [&] {
    const telemetry::CriticalPathReport rep =
        telemetry::CriticalPathProfiler(*plane.tracer).report();
    std::printf("[watch t=%.1fms] attributed=%llu merge-wait=%.1f%%",
                static_cast<double>(sim.now()) / 1e6,
                static_cast<unsigned long long>(rep.attributed),
                100.0 * rep.stage_fraction(telemetry::Stage::kMergeWait));
    if (!rep.nfs.empty()) {
      std::printf(" top=%s (%.1f%% of critical paths)",
                  rep.nfs.front().component.c_str(),
                  100.0 * rep.bottleneck_share(rep.nfs.front()));
    }
    std::printf("\n");
    // Reschedule only while the run still has pending work, so the
    // simulator can drain and exit.
    if (sim.pending() > 0) sim.schedule_after(watch_ns, watch_tick);
  };
  run_wave(plane, a, 0, [&] {
    if (watch_ns > 0) sim.schedule_after(watch_ns, watch_tick);
  });

  const telemetry::CriticalPathReport report =
      telemetry::CriticalPathProfiler(*plane.tracer).report();
  if (a.json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("plane=%s policy='%s' (%s)\n%s", a.plane.c_str(),
                graph.name().c_str(), graph.structure().c_str(),
                report.to_text().c_str());
  }

  // Anything in the flight recorder means the run hit an anomaly; surface
  // the post-mortem rather than letting it end silently "successful".
  if (nfp_dp && nfp_dp->flight_recorder().recorded() > 0) {
    std::printf("\n%s", nfp_dp->post_mortem("anomalies during profile run")
                            .c_str());
  }
  return 0;
}

// --- the sharded live dataplane on real threads --------------------------

using Frames = std::vector<std::vector<u8>>;

// One wave of frames with the requested flow count / skew / size, built
// through the traffic generator so live and simulated runs share the same
// packet shapes.
Frames make_frames(const TrafficArgs& t) {
  sim::Simulator sim;
  PacketPool pool(4);
  TrafficConfig cfg;
  cfg.flows = static_cast<std::size_t>(t.flows);
  cfg.flow_skew = t.skew == "zipf" ? FlowSkew::kZipf : FlowSkew::kUniform;
  TrafficGenerator gen(sim, pool, cfg);
  Frames frames;
  frames.reserve(static_cast<std::size_t>(t.packets));
  for (u64 i = 0; i < t.packets; ++i) {
    Packet* p = gen.make_packet(pool, gen.next_flow(),
                                static_cast<std::size_t>(t.size));
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// A ShardedDataplane plus the observatories a command reads. It owns the
// one ordering that matters: observatories register before start(), so
// perf_event inheritance covers the shard threads, and their baselines
// reset after start(), so thread spawn is not accounted.
struct LiveSession {
  struct Observers {
    bool scalability = false;
    bool latency = false;  // samples 1/opts.pipeline.latency_sample_every
    bool flows = false;
    std::size_t top_k = telemetry::FlowObservatoryOptions{}.top_k;
  };

  LiveSession(const ServiceGraph& graph, const ShardedDataplaneOptions& opts,
              const Observers& observe)
      : dp({graph}, pass_all_factory, opts) {
    if (observe.scalability) dp.register_scalability(profiler.emplace());
    if (observe.latency) dp.register_latency(latency.emplace());
    if (observe.flows) {
      telemetry::FlowObservatoryOptions flow_options;
      flow_options.top_k = observe.top_k;
      dp.register_flows(flows.emplace(flow_options));
    }
  }

  // Prints the error and returns false when the shards fail to start.
  bool start() {
    if (const Status st = dp.start(); !st.is_ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return false;
    }
    if (profiler) profiler->reset_baseline();
    if (latency) latency->reset_baseline();
    if (flows) flows->reset_baseline();
    return true;
  }

  // Feeds every frame and waits until each is delivered or dropped. Take
  // reports between this and finish(): drain() joins the workers, so the
  // wall window then matches the one the threads accounted.
  void feed_all(const Frames& frames) {
    for (const auto& frame : frames) dp.feed({frame.data(), frame.size()});
    for (;;) {
      u64 done = 0;
      for (std::size_t s = 0; s < dp.shard_count(); ++s) {
        done += dp.shard_delivered(s) + dp.shard_dropped(s);
      }
      if (done >= frames.size()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Drains the shards; prints the error when the run failed.
  ShardedResult finish() {
    ShardedResult res = dp.drain();
    if (!res.status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", res.status.message().c_str());
    }
    return res;
  }

  ShardedDataplane dp;
  std::optional<telemetry::ScalabilityProfiler> profiler;
  std::optional<telemetry::LatencyObservatory> latency;
  std::optional<telemetry::FlowObservatory> flows;
};

void print_live_summary(ShardedDataplane& dp, const ShardedResult& res,
                        double seconds, u64 injected) {
  std::printf("live run: %llu frames, %zu shards (%zu online CPUs, "
              "pinned=%s, mode=%s): delivered=%zu dropped=%llu",
              static_cast<unsigned long long>(injected), dp.shard_count(),
              online_cpu_count(), dp.affinity_applied() ? "yes" : "no",
              exec_mode_name(dp.exec_mode()), res.outputs.size(),
              static_cast<unsigned long long>(res.dropped));
  if (seconds > 0) {
    std::printf(" %.0f pps", static_cast<double>(injected) / seconds);
  }
  std::printf("\n");
  const u64 hits = dp.microflow_hits();
  const u64 misses = dp.microflow_misses();
  if (hits + misses > 0) {
    std::printf("microflow cache: %.1f%% hit rate (%llu hits, %llu misses, "
                "%llu invalidations)\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(dp.microflow_invalidations()));
  }
  std::printf("  %-8s %10s %10s %10s %8s\n", "shard", "rx", "delivered",
              "dropped", "mf hit");
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const u64 sh = dp.shard_hits(s);
    const u64 sm = dp.shard_misses(s);
    const double rate =
        (sh + sm) > 0
            ? static_cast<double>(sh) / static_cast<double>(sh + sm)
            : 0;
    std::printf("  %-8zu %10llu %10zu %10llu %7.1f%%\n", s,
                static_cast<unsigned long long>(dp.shard_received(s)),
                s < res.per_shard.size() ? res.per_shard[s].delivered : 0,
                static_cast<unsigned long long>(
                    s < res.per_shard.size() ? res.per_shard[s].dropped : 0),
                100.0 * rate);
  }
}

// Sums the per-reason drop taxonomy over every shard and prints the
// non-zero reasons — the line that shows a ddos scenario's attack share
// dying at classification time (classifier_miss) rather than in an NF.
void print_drop_reasons(ShardedDataplane& dp) {
  std::array<u64, telemetry::kDropReasonCount> totals{};
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const telemetry::ShardFlowSnapshot snap = dp.flow_snapshot(s);
    for (std::size_t r = 0; r < totals.size(); ++r) totals[r] += snap.drops[r];
  }
  std::printf("drop reasons:");
  bool any = false;
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (totals[r] == 0) continue;
    any = true;
    std::printf(" %s=%llu",
                telemetry::drop_reason_name(
                    static_cast<telemetry::DropReason>(r)),
                static_cast<unsigned long long>(totals[r]));
  }
  std::printf("%s\n", any ? "" : " none");
}

// live --serve: stream waves of the same flow set forever with the
// observability plane live. All registry series exist before the server
// and sampler threads scan the maps; afterwards waves touch only atomic
// cells, so they run without the serve mutex.
int serve_live(LiveSession& session, const Frames& frames, u64 port) {
  ShardedDataplane& dp = session.dp;
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder;
  telemetry::Watchdog watchdog(recorder);
  watchdog.set_registry(&registry);
  telemetry::HealthSampler sampler(registry);
  sampler.set_watchdog(&watchdog);
  dp.register_health(sampler, &watchdog);

  // The resolved execution mode as a labeled one-hot gauge: dashboards and
  // `nfp_cli top` read exec_mode_active{mode="..."} == 1 off /metrics.json.
  registry
      .gauge("exec_mode_active", {{"mode", exec_mode_name(dp.exec_mode())},
                                  {"plane", "sharded"}})
      .set(1);
  telemetry::Counter& injected =
      registry.counter("packets_injected_total", {{"plane", "sharded"}});
  telemetry::Counter& dropped_total =
      registry.counter("packets_dropped_total", {{"plane", "sharded"}});
  std::vector<telemetry::Counter*> delivered_counters;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    delivered_counters.push_back(&registry.counter(
        "packets_delivered_total",
        {{"plane", "sharded"}, {"shard", std::to_string(s)}}));
  }
  if (!session.start()) return 1;

  // Guard each delta against a source reading below the last one (a
  // restarted/reset source): the raw u64 subtraction would wrap and inc()
  // the counter by ~2^64, which reads as a counter that jumped *backwards*
  // and poisons every later :rate sample.
  const auto delta = [](u64 now, u64* last) {
    const u64 d = now >= *last ? now - *last : now;
    *last = now;
    return d;
  };
  std::vector<u64> last_delivered(dp.shard_count(), 0);
  u64 last_dropped = 0;
  ServeHooks hooks;
  hooks.wave = [&](u64, std::mutex&) {
    for (const auto& frame : frames) {
      if (g_stop != 0) break;
      dp.feed({frame.data(), frame.size()});
      injected.inc();
    }
    u64 dropped_now = 0;
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      delivered_counters[s]->inc(
          delta(dp.shard_delivered(s), &last_delivered[s]));
      dropped_now += dp.shard_dropped(s);
    }
    dropped_total.inc(delta(dropped_now, &last_dropped));
  };
  hooks.probes = [&](telemetry::TimeseriesCollector& collector) {
    collector.add_probe("microflow_hit_rate", {}, [&dp] {
      const u64 hits = dp.microflow_hits();
      const u64 misses = dp.microflow_misses();
      return (hits + misses) > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0;
    });
    session.profiler->register_probes(collector);
    session.latency->register_probes(collector);
    session.flows->register_probes(collector);
  };
  hooks.banner = [&](unsigned bound) {
    std::printf("live dataplane: %zu shards (%zu online CPUs, mode=%s) "
                "serving on http://127.0.0.1:%u — /metrics /timeseries.json "
                "/scalability.json /latency.json /flows.json /healthz — "
                "`nfp_cli top --port=%u` for the dashboard, Ctrl-C to stop\n",
                dp.shard_count(), online_cpu_count(),
                exec_mode_name(dp.exec_mode()), bound, bound);
  };
  hooks.sampler = &sampler;

  telemetry::EndpointSources sources;
  sources.recorder = &recorder;
  sources.watchdog = &watchdog;
  sources.scalability = &*session.profiler;
  sources.latency = &*session.latency;
  sources.flows = &*session.flows;
  if (const int rc = serve(registry, sources, port, hooks); rc != 0) return rc;
  const ShardedResult res = session.finish();
  print_live_summary(dp, res, 0, injected.value.load());
  return res.status.is_ok() ? 0 : 1;
}

int live_command(const ServiceGraph& graph, int argc, char** argv) {
  LiveArgs a;
  if (!parse_flags(a.flags(), argc, argv, 3)) return usage();
  const bool serving = a.serve != 0;

  std::optional<Scenario> scenario;
  Frames frames;
  if (!a.scenario.empty()) {
    scenario = make_scenario(a.scenario, a.packets, 42);
    for (const auto& f : scenario->frames) frames.push_back(f.bytes);
  } else {
    frames = make_frames(a);
  }

  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(a.shards);
  // Serve mode defaults the stage-latency sampler on: 1-in-8 flows keeps
  // the panel populated at the default 64-flow workload while the off-path
  // cost stays one branch per packet per hop.
  opts.pipeline.latency_sample_every =
      static_cast<std::size_t>(a.lat_every.value_or(serving ? 8 : 0));
  opts.pipeline.exec_mode = *parse_exec_mode(a.mode);
  LiveSession session(graph, opts,
                      {.scalability = serving, .latency = serving,
                       .flows = serving});
  ShardedDataplane& dp = session.dp;

  if (a.rules > 0) {
    dp.add_rules(synthetic_ct_rules(static_cast<std::size_t>(a.rules), 42,
                                    dp.graph_count()));
    std::printf("preloaded %llu synthetic CT rules (%zu tuple-space masks)\n",
                static_cast<unsigned long long>(a.rules),
                dp.classifier_tuple_count());
  }
  if (scenario && scenario->has_attack_subnet) {
    // The scrubbing rule the scenario metadata asks for: everything from
    // the attack subnet dies at classification time, before any NF runs.
    CtRule drop;
    drop.src_ip = scenario->attack_subnet;
    drop.src_mask = scenario->attack_mask;
    drop.priority = 1'000'000;  // outranks every synthetic filler rule
    drop.graph = LiveClassificationTable::kDropGraph;
    dp.add_rule(drop);
  }
  if (scenario) {
    std::printf("scenario '%s': %s (%llu frames, ~%zu flows)\n",
                scenario->name.c_str(), scenario->summary.c_str(),
                static_cast<unsigned long long>(scenario->frames.size()),
                scenario->flows);
  }
  if (serving) return serve_live(session, frames, a.serve);

  const auto t0 = std::chrono::steady_clock::now();
  if (!session.start()) return 1;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Paced replay: honor a preset's inter-frame gaps (sleeping only for
    // the macroscopic off-periods; sub-millisecond gaps are noise next to
    // scheduler latency).
    if (scenario && scenario->frames[i].gap_ns >= 1'000'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(scenario->frames[i].gap_ns));
    }
    dp.feed({frames[i].data(), frames[i].size()});
  }
  const ShardedResult res = session.finish();
  const auto t1 = std::chrono::steady_clock::now();
  if (!res.status.is_ok()) return 1;
  print_live_summary(dp, res, std::chrono::duration<double>(t1 - t0).count(),
                     frames.size());
  if (scenario || a.rules > 0) print_drop_reasons(dp);
  return 0;
}

// --- nfp_cli top: live dashboard over a --serve'd run --------------------

// /timeseries.json folded into the dashboard's headline numbers.
struct TopView {
  double pps_in = 0;
  double pps_out = 0;
  double drops_per_s = 0;
  double merge_wait_share = 0;
  u64 ticks = 0;
  std::map<std::string, double> util;       // component -> core_util
  std::map<std::string, double> p99_ns;     // nf -> nf_service_ns:p99
  std::map<std::string, double> p999_ns;    // nf -> nf_service_ns:p999
  std::map<std::string, double> bn_share;   // nf -> bottleneck share
  std::vector<double> out_history;          // delivered pps points
};

// The documents behind the optional panels. Each is absent when the server
// does not serve its endpoint (404), and the panel is then skipped.
struct TopPanels {
  std::optional<json::Value> metrics;      // /metrics.json: the exec mode
  std::optional<json::Value> latency;      // /latency.json
  std::optional<json::Value> flows;        // /flows.json
  std::optional<json::Value> scalability;  // /scalability.json
};

std::string series_label(const json::Value& series, const char* key) {
  const json::Value* labels = series.find("labels");
  if (labels == nullptr) return {};
  return std::string(labels->string_or(key, ""));
}

TopView parse_top_view(const json::Value& doc) {
  TopView view;
  view.ticks = static_cast<u64>(doc.number_or("ticks", 0));
  const json::Value* series = doc.find("series");
  if (series == nullptr || !series->is_array()) return view;
  for (const json::Value& s : series->items()) {
    const std::string name(s.string_or("name", ""));
    const double last = s.number_or("last", 0);
    if (name == "packets_injected_total:rate") {
      view.pps_in += last;
    } else if (name == "packets_delivered_total:rate") {
      view.pps_out += last;
      const json::Value* points = s.find("points");
      if (points != nullptr && points->is_array()) {
        for (const json::Value& p : points->items()) {
          if (p.is_array() && p.size() == 2) {
            view.out_history.push_back(p.items()[1].as_number());
          }
        }
      }
    } else if (name == "packets_dropped_total:rate") {
      view.drops_per_s += last;
    } else if (name == "merge_wait_share") {
      view.merge_wait_share = last;
    } else if (name == "core_util") {
      view.util[series_label(s, "component")] = last;
    } else if (name == "nf_service_ns:p99") {
      view.p99_ns[series_label(s, "nf")] = last;
    } else if (name == "nf_service_ns:p999") {
      view.p999_ns[series_label(s, "nf")] = last;
    } else if (name == "bottleneck_share") {
      view.bn_share[series_label(s, "nf")] = last;
    }
  }
  return view;
}

// The active execution mode: the exec_mode_active{mode="..."} gauge that
// reads 1 on /metrics.json; empty when the server publishes none.
std::string active_exec_mode(const json::Value& doc) {
  std::string mode;
  const json::Value* gauges = doc.find("gauges");
  if (gauges == nullptr || !gauges->is_array()) return mode;
  for (const json::Value& g : gauges->items()) {
    const json::Value* labels = g.find("labels");
    if (g.string_or("name", "") == "exec_mode_active" &&
        g.number_or("value", 0) == 1.0 && labels != nullptr) {
      mode = std::string(labels->string_or("mode", ""));
    }
  }
  return mode;
}

std::string util_bar(double fraction, int width = 20) {
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '-';
  return bar + "]";
}

std::string sparkline(const std::vector<double>& points, std::size_t width) {
  static const char kLevels[] = " .:-=+*#%@";
  if (points.empty()) return {};
  const std::size_t start =
      points.size() > width ? points.size() - width : 0;
  double hi = 0;
  for (std::size_t i = start; i < points.size(); ++i) {
    hi = std::max(hi, points[i]);
  }
  std::string out;
  for (std::size_t i = start; i < points.size(); ++i) {
    const double frac = hi > 0 ? points[i] / hi : 0;
    const int level = static_cast<int>(frac * 9 + 0.5);
    out += kLevels[level < 0 ? 0 : level > 9 ? 9 : level];
  }
  return out;
}

// Stage-resolved tail latency (/latency.json), once a sampled packet has
// completed.
void render_latency(const json::Value& doc) {
  const json::Value* total = doc.find("total");
  const json::Value* stages = total ? total->find("stages") : nullptr;
  const auto sampled = static_cast<u64>(doc.number_or("sampled", 0));
  if (stages == nullptr || sampled == 0) return;
  const auto every = static_cast<u64>(doc.number_or("sample_every", 0));
  std::printf("\n  latency (sampled 1/%llu flows, %llu samples)   "
              "queue depth %.0f   ingest depth %.0f\n",
              static_cast<unsigned long long>(every ? every : 1),
              static_cast<unsigned long long>(sampled),
              total->number_or("queue_depth", 0),
              total->number_or("ingest_queue_depth", 0));
  std::printf("  %-12s %9s %9s %9s %9s\n", "stage", "p50us", "p99us",
              "p99.9us", "maxus");
  for (std::size_t i = 0; i < telemetry::kLatencyStageCount; ++i) {
    const char* name =
        telemetry::latency_stage_name(static_cast<telemetry::LatencyStage>(i));
    const json::Value* s = stages->find(name);
    if (s == nullptr || static_cast<u64>(s->number_or("count", 0)) == 0) {
      continue;
    }
    std::printf("  %-12s %9.1f %9.1f %9.1f %9.1f\n", name,
                s->number_or("p50_us", 0), s->number_or("p99_us", 0),
                s->number_or("p999_us", 0), s->number_or("max_us", 0));
  }
}

// Heavy hitters and the drop taxonomy (/flows.json). The dashboard shows
// the head of the top-K list.
void render_flows(const json::Value& doc) {
  const json::Value* top = doc.find("top");
  if (top != nullptr && top->is_array() && !top->items().empty()) {
    std::printf("\n  top flows (%.0f active)\n",
                doc.number_or("flows_active", 0));
    std::printf("  %-4s %-34s %10s %12s %7s\n", "#", "flow", "packets",
                "bytes", "share");
    for (std::size_t i = 0; i < top->items().size() && i < 5; ++i) {
      const json::Value& f = top->items()[i];
      std::printf("  %-4zu %-34s %10.0f %12.0f %6.1f%%\n", i + 1,
                  std::string(f.string_or("flow", "?")).c_str(),
                  f.number_or("packets", 0), f.number_or("bytes", 0),
                  100.0 * f.number_or("share", 0));
    }
  }
  std::map<std::string, double> drops;  // printed in name order
  if (const json::Value* d = doc.find("drops"); d != nullptr) {
    for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
      const char* reason =
          telemetry::drop_reason_name(static_cast<telemetry::DropReason>(r));
      if (const double n = d->number_or(reason, 0); n > 0) drops[reason] = n;
    }
  }
  if (drops.empty()) return;
  std::printf("  drops by reason:");
  for (const auto& [reason, n] : drops) {
    std::printf(" %s=%.0f", reason.c_str(), n);
  }
  std::printf("\n");
}

// Per-shard cycle attribution (/scalability.json): where each shard's
// accounted time went, in bucket order.
void render_scalability(const json::Value& doc) {
  const json::Value* shards = doc.find("shards");
  if (shards == nullptr || !shards->is_array() || shards->items().empty()) {
    return;
  }
  std::printf("\n  %-10s %10s %10s %7s %7s %7s %7s %7s %7s\n", "shard", "pps",
              "proj pps", "useful", "starve", "ring", "pool", "merge",
              "miss");
  for (const json::Value& s : shards->items()) {
    std::printf("  %-10s %10.0f %10.0f",
                std::string(s.string_or("name", "?")).c_str(),
                s.number_or("pps", 0), s.number_or("projected_pps", 0));
    const json::Value* shares = s.find("shares");
    for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
      const char* bucket =
          telemetry::cycle_bucket_name(static_cast<telemetry::CycleBucket>(b));
      std::printf(" %6.1f%%",
                  100.0 * (shares ? shares->number_or(bucket, 0) : 0));
    }
    std::printf("\n");
  }
  const std::string contention(doc.string_or("top_contention_source", ""));
  if (!contention.empty()) {
    std::printf("  top contention source: %s\n", contention.c_str());
  }
}

void render_top(const TopView& view, const TopPanels& panels,
                const std::string& health_body, int health_status, u64 port,
                bool clear_screen) {
  if (clear_screen) std::printf("\x1b[H\x1b[2J");
  std::printf("nfp top — 127.0.0.1:%llu   tick %llu   ",
              static_cast<unsigned long long>(port),
              static_cast<unsigned long long>(view.ticks));
  if (const std::string mode =
          panels.metrics ? active_exec_mode(*panels.metrics) : "";
      !mode.empty()) {
    std::printf("mode %s   ", mode.c_str());
  }
  if (health_status == 200) {
    std::printf("healthy\n");
  } else {
    std::printf("UNHEALTHY (HTTP %d)\n", health_status);
    const auto health = json::Value::parse(health_body);
    if (health) {
      const json::Value* firing = health.value().find("firing");
      if (firing != nullptr && firing->is_array()) {
        for (const json::Value& f : firing->items()) {
          if (f.is_string()) std::printf("  !! %s\n", f.as_string().c_str());
        }
      }
    }
  }
  std::printf("  in %9.1f pps   out %9.1f pps   drops %7.1f/s   "
              "merge-wait %4.1f%%\n",
              view.pps_in, view.pps_out, view.drops_per_s,
              100.0 * view.merge_wait_share);
  if (!view.out_history.empty()) {
    std::printf("  out pps %s\n", sparkline(view.out_history, 48).c_str());
  }

  // Bottleneck NF: the largest critical-path share.
  std::string bottleneck;
  double bottleneck_share = 0;
  for (const auto& [nf, share] : view.bn_share) {
    if (share > bottleneck_share) {
      bottleneck_share = share;
      bottleneck = nf;
    }
  }
  if (!bottleneck.empty()) {
    std::printf("  bottleneck %s (%.1f%% of critical paths)\n",
                bottleneck.c_str(), 100.0 * bottleneck_share);
  }

  std::printf("\n  %-22s %-22s %6s %12s %12s %10s\n", "component",
              "utilization", "", "p99 service", "p99.9 svc", "bn share");
  for (const auto& [component, util] : view.util) {
    std::printf("  %-22s %s %5.1f%%", component.c_str(),
                util_bar(util).c_str(), 100.0 * util);
    for (const auto* ns : {&view.p99_ns, &view.p999_ns}) {
      const auto it = ns->find(component);
      if (it != ns->end()) {
        std::printf(" %9.1f us", it->second / 1e3);
      } else {
        std::printf(" %12s", "—");
      }
    }
    const auto share = view.bn_share.find(component);
    if (share != view.bn_share.end()) {
      std::printf(" %8.1f%%", 100.0 * share->second);
    }
    std::printf("\n");
  }

  if (panels.latency) render_latency(*panels.latency);
  if (panels.flows) render_flows(*panels.flows);
  if (panels.scalability) render_scalability(*panels.scalability);
  std::fflush(stdout);
}

// An optional panel's document; nullopt when the endpoint answers non-200
// or its body does not parse.
std::optional<json::Value> fetch_json(std::uint16_t port, const char* path) {
  const auto res = telemetry::http_get(port, path);
  if (!res || res.value().status != 200) return std::nullopt;
  auto doc = json::Value::parse(res.value().body);
  if (!doc) return std::nullopt;
  return std::move(doc.value());
}

int top_command(int argc, char** argv) {
  TopArgs a;
  if (!parse_flags(a.flags(), argc, argv, 2)) return usage();
  const auto port = static_cast<std::uint16_t>(a.port);

  install_stop_handler();
  const bool clear_screen = a.iterations != 1;
  for (u64 i = 0; (a.iterations == 0 || i < a.iterations) && g_stop == 0;
       ++i) {
    auto ts = telemetry::http_get(port, "/timeseries.json");
    if (!ts) {
      std::fprintf(stderr,
                   "error: %s\n(is `nfp_cli run <policy> --serve=%llu` "
                   "running?)\n",
                   ts.error().c_str(), static_cast<unsigned long long>(port));
      return 1;
    }
    auto health = telemetry::http_get(port, "/healthz");
    const auto doc = json::Value::parse(ts.value().body);
    if (!doc) {
      std::fprintf(stderr, "error: bad /timeseries.json: %s\n",
                   doc.error().c_str());
      return 1;
    }
    const TopPanels panels{fetch_json(port, "/metrics.json"),
                           fetch_json(port, "/latency.json"),
                           fetch_json(port, "/flows.json"),
                           fetch_json(port, "/scalability.json")};
    render_top(parse_top_view(doc.value()), panels,
               health ? health.value().body : std::string(),
               health ? health.value().status : 0, port, clear_screen);
    if (a.iterations != 0 && i + 1 == a.iterations) break;
    interruptible_sleep_ms(a.interval);
  }
  return 0;
}

// --- nfp_cli scalability / latency / flows ------------------------------

// The workload when no policy file is given: 4 parallel monitors with
// per-branch copies and a 4-arrival merge — the shape whose 2-shard scaling
// loss motivated the profiler (BENCH_shard_scaling.json par4).
ServiceGraph make_par4() {
  ServiceGraph g("par4");
  Segment seg;
  seg.mid = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    seg.nfs.push_back(StageNf{"monitor", static_cast<int>(i),
                              static_cast<u8>(i + 1), static_cast<int>(i),
                              false});
  }
  seg.num_versions = 4;
  seg.merge.total_count = 4;
  g.segments().push_back(std::move(seg));
  return g;
}

// Sweeps shard counts and attributes every lost packet-per-second to a
// cycle bucket (useful/starved/ring/pool/merge/classifier-miss).
int scalability_command(const ServiceGraph& graph, int argc, char** argv,
                        int first) {
  ScalabilityArgs a;
  if (!parse_flags(a.flags(), argc, argv, first)) return usage();
  const Frames frames = make_frames(a);
  if (!a.json) {
    std::printf("scalability sweep: policy='%s' (%s), %llu packets, "
                "%llu flows, %s skew, %zu online CPUs\n",
                graph.name().c_str(), graph.structure().c_str(),
                static_cast<unsigned long long>(a.packets),
                static_cast<unsigned long long>(a.flows), a.skew.c_str(),
                online_cpu_count());
  }

  double base_pps = 0;
  for (const std::size_t shards : a.shard_counts) {
    ShardedDataplaneOptions opts;
    opts.shards = shards;
    opts.pipeline.exec_mode = *parse_exec_mode(a.mode);
    LiveSession session(graph, opts, {.scalability = true});
    // The concrete mode (auto resolves per graph at construction).
    const char* active_mode = exec_mode_name(session.dp.exec_mode());
    if (!session.start()) return 1;
    session.feed_all(frames);
    const telemetry::ScalabilityReport report = session.profiler->report();
    if (!session.finish().status.is_ok()) return 1;

    if (shards == a.shard_counts.front()) base_pps = report.total_pps;
    const double scaling = base_pps > 0 ? report.total_pps / base_pps : 0;
    if (a.json) {
      std::printf("{\"command\":\"scalability\",\"policy\":\"%s\","
                  "\"mode\":\"%s\",\"shards\":%zu,\"packets\":%llu,"
                  "\"flows\":%llu,\"skew\":\"%s\",\"online_cpus\":%zu,"
                  "\"scaling_vs_first\":%.3f,\"report\":%s}\n",
                  graph.name().c_str(), active_mode, shards,
                  static_cast<unsigned long long>(a.packets),
                  static_cast<unsigned long long>(a.flows), a.skew.c_str(),
                  online_cpu_count(), scaling, report.to_json().c_str());
    } else {
      std::printf("\n=== shards=%zu mode=%s  (%.0f pps aggregate, %.2fx vs "
                  "shards=%zu) ===\n%s",
                  shards, active_mode, report.total_pps, scaling,
                  a.shard_counts.front(), report.to_text().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

// The paper's core experiment, live: runs the NFP-parallel graph and its
// flattened sequential chain on the sharded dataplane and prints the
// stage-resolved latency-reduction table (p50/p99/p99.9 per stage).
int latency_command(const ServiceGraph& graph, int argc, char** argv,
                    int first) {
  LatencyArgs a;
  if (!parse_flags(a.flags(), argc, argv, first)) return usage();
  if (graph.is_sequential()) {
    std::fprintf(stderr,
                 "warning: policy '%s' has no parallel stage; both runs "
                 "are sequential chains\n",
                 graph.name().c_str());
  }

  const Frames frames = make_frames(a);
  // The same NFs as one chain, so the comparison isolates graph shape.
  const ServiceGraph chain =
      ServiceGraph::sequential(graph.name() + "-chain", nf_chain(graph));
  if (!a.json) {
    std::printf("latency experiment: '%s' (%s) vs sequential chain (%s), "
                "%llu packets/plane, %llu flows, %s skew, %zu shards, "
                "mode=%s, sampling 1/%llu flows\n",
                graph.name().c_str(), graph.structure().c_str(),
                chain.structure().c_str(),
                static_cast<unsigned long long>(a.packets),
                static_cast<unsigned long long>(a.flows), a.skew.c_str(),
                static_cast<std::size_t>(a.shards), a.mode.c_str(),
                static_cast<unsigned long long>(a.sample_every));
  }

  // One live run per plane; each report covers exactly that run's packets.
  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(a.shards);
  opts.pipeline.latency_sample_every = static_cast<std::size_t>(a.sample_every);
  opts.pipeline.exec_mode = *parse_exec_mode(a.mode);
  const auto measure = [&](const ServiceGraph& plane,
                           telemetry::LatencyReport* out) {
    LiveSession session(plane, opts, {.latency = true});
    if (!session.start()) return false;
    session.feed_all(frames);
    *out = session.latency->report();
    return session.finish().status.is_ok();
  };
  telemetry::LatencyReport seq_rep;
  telemetry::LatencyReport par_rep;
  if (!measure(chain, &seq_rep) || !measure(graph, &par_rep)) return 1;

  using telemetry::LatencyStage;
  const telemetry::HdrSnapshot& st = seq_rep.stage(LatencyStage::kTotal);
  const telemetry::HdrSnapshot& pt = par_rep.stage(LatencyStage::kTotal);
  const auto reduction = [](double seq, double par) {
    return seq > 0 ? 100.0 * (seq - par) / seq : 0.0;
  };
  const double red_p50 = reduction(static_cast<double>(st.quantile(0.50)),
                                   static_cast<double>(pt.quantile(0.50)));
  const double red_p99 = reduction(static_cast<double>(st.quantile(0.99)),
                                   static_cast<double>(pt.quantile(0.99)));
  const double red_p999 = reduction(static_cast<double>(st.quantile(0.999)),
                                    static_cast<double>(pt.quantile(0.999)));
  const double red_mean = reduction(st.mean(), pt.mean());

  if (a.json) {
    std::printf("{\"command\":\"latency\",\"policy\":\"%s\","
                "\"structure\":\"%s\",\"chain_structure\":\"%s\","
                "\"mode\":\"%s\","
                "\"shards\":%zu,\"packets\":%llu,\"flows\":%llu,"
                "\"skew\":\"%s\",\"sample_every\":%llu,"
                "\"sequential\":%s,\"parallel\":%s,"
                "\"reduction_pct\":{\"p50\":%.1f,\"p99\":%.1f,"
                "\"p999\":%.1f,\"mean\":%.1f}}\n",
                graph.name().c_str(), graph.structure().c_str(),
                chain.structure().c_str(), a.mode.c_str(),
                static_cast<std::size_t>(a.shards),
                static_cast<unsigned long long>(a.packets),
                static_cast<unsigned long long>(a.flows), a.skew.c_str(),
                static_cast<unsigned long long>(a.sample_every),
                seq_rep.to_json().c_str(), par_rep.to_json().c_str(),
                red_p50, red_p99, red_p999, red_mean);
    return 0;
  }

  std::printf("\n=== sequential chain (%s) — %llu sampled ===\n%s",
              chain.structure().c_str(),
              static_cast<unsigned long long>(seq_rep.sampled()),
              seq_rep.to_text().c_str());
  std::printf("\n=== NFP parallel (%s) — %llu sampled ===\n%s",
              graph.structure().c_str(),
              static_cast<unsigned long long>(par_rep.sampled()),
              par_rep.to_text().c_str());
  std::printf("\nlatency reduction (NFP vs sequential, positive = faster): "
              "p50 %.1f%%  p99 %.1f%%  p99.9 %.1f%%  mean %.1f%%\n",
              red_p50, red_p99, red_p999, red_mean);
  return 0;
}

// Runs a zipf elephant/mice workload and prints the flow observatory's
// view: cross-shard merged top-K heavy hitters, flow churn, per-reason drop
// attribution and per-graph accounting. --pool=N switches the director to
// NIC-like tail drops with an N-slot ingest pool, so the drop-reason table
// fills with ring_full/pool_exhausted attribution under overload.
int flows_command(const ServiceGraph& graph, int argc, char** argv,
                  int first) {
  FlowsArgs a;
  if (!parse_flags(a.flags(), argc, argv, first)) return usage();
  const Frames frames = make_frames(a);

  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(a.shards);
  if (a.pool != 0) {
    // The constructor keeps pool >= ring + burst, so the ring is the
    // binding constraint and the drop table fills with ring_full.
    opts.ingest_pool_size = static_cast<std::size_t>(a.pool);
    opts.ingest_ring_depth = static_cast<std::size_t>(a.pool);
    opts.drop_on_ingest_backpressure = true;
  }
  LiveSession session(
      graph, opts, {.flows = true, .top_k = static_cast<std::size_t>(a.top)});
  if (!session.start()) return 1;
  session.feed_all(frames);
  const telemetry::FlowReport report = session.flows->report();
  if (!session.finish().status.is_ok()) return 1;

  if (a.json) {
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  }
  std::printf("flows: policy='%s' (%s), %llu packets, %llu flows, %s skew, "
              "%zu shards%s\n",
              graph.name().c_str(), graph.structure().c_str(),
              static_cast<unsigned long long>(a.packets),
              static_cast<unsigned long long>(a.flows), a.skew.c_str(),
              session.dp.shard_count(),
              a.pool != 0 ? " (tail-drop ingest)" : "");
  std::printf("%s", report.to_text().c_str());
  return 0;
}

// Reads and compiles a policy file; prints the error, or the compiler's
// warnings, to stderr.
std::optional<ServiceGraph> load_policy(const std::string& path,
                                        CompileReport* report) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto policy = parse_policy(buffer.str());
  Result<ServiceGraph> graph =
      policy ? compile_policy(policy.value(), ActionTable::with_builtin_nfs(),
                              {}, report)
             : Result<ServiceGraph>::error(policy.error());
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.error().c_str());
    return std::nullopt;
  }
  for (const auto& warning : report->warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  return std::move(graph.value());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "stats") {
    const ActionTable table = ActionTable::with_builtin_nfs();
    std::printf("%s", pair_stats_table(compute_pair_stats(table)).c_str());
    return 0;
  }
  if (command == "top") return top_command(argc, argv);

  // These take an optional policy file before their flags and run the par4
  // stage without one.
  using LiveCommand = int (*)(const ServiceGraph&, int, char**, int);
  const std::map<std::string, LiveCommand> optional_policy = {
      {"scalability", scalability_command},
      {"latency", latency_command},
      {"flows", flows_command}};
  if (const auto it = optional_policy.find(command);
      it != optional_policy.end()) {
    if (argc < 3 || argv[2][0] == '-') {
      return it->second(make_par4(), argc, argv, 2);
    }
    CompileReport report;
    const auto graph = load_policy(argv[2], &report);
    return graph ? it->second(*graph, argc, argv, 3) : 1;
  }

  if (argc < 3) return usage();
  CompileReport report;
  const auto graph = load_policy(argv[2], &report);
  if (!graph) return 1;

  if (command == "compile") {
    std::printf("%s", graph->to_string().c_str());
    for (const auto& d : report.decisions) {
      std::printf("  %s | %s -> %s\n", d.nf1.c_str(), d.nf2.c_str(),
                  std::string(pair_parallelism_name(d.verdict)).c_str());
    }
    return 0;
  }
  if (command == "tables") {
    std::printf("%s", tables_to_string(generate_tables(*graph)).c_str());
    return 0;
  }
  if (command == "dot") {
    std::printf("%s", graph->to_dot().c_str());
    return 0;
  }
  if (command == "run") return run_command(*graph, argc, argv);
  if (command == "live") return live_command(*graph, argc, argv);
  if (command == "profile") return profile_command(*graph, argc, argv);
  if (command == "plan") {
    cluster::PartitionOptions options;
    if (argc > 3) {
      const auto cores = parse_u64(argv[3]);
      if (!cores) {
        std::fprintf(stderr, "bad core count '%s'\n", argv[3]);
        return usage();
      }
      options.cores_per_server = static_cast<std::size_t>(*cores);
    }
    const auto plan = cluster::partition_graph(*graph, options);
    if (!plan) {
      std::fprintf(stderr, "error: %s\n", plan.error().c_str());
      return 1;
    }
    std::printf("%s", cluster::plan_to_string(*graph, plan.value()).c_str());
    return 0;
  }
  return usage();
}
