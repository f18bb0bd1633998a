// Live execution: the NFP dataplane on real OS threads.
//
// The simulated-time dataplane (NfpDataplane) is the measurement vehicle;
// this pipeline runs the same compiled service graphs on real threads, in
// one of two execution modes (ExecMode below) that share everything but
// the hand-off: one NF table, one lifecycle, one ingest path, one fanout
// routine (fanout_plan.hpp), one merge resolution (merge_ops.hpp), one drop
// taxonomy and one latency finalizer.
//   * pipelined — one thread per NF (the paper's one-container-per-core)
//     plus a merger thread, connected by lock-free SPSC burst rings; the
//     feeding thread admits packets under an in-flight window;
//   * rtc — the feeding thread walks the graph inline per packet:
//     sequential hops are direct calls, a parallel segment runs its
//     branches one after another on their versions and merges at once.
//
// The pipelined hot path is built on the DPDK idioms of the paper's
// infrastructure layer (§5, Fig 3):
//   * burst ring I/O — packets move between threads in bursts with one
//     index publish per burst (SpscRing::push_burst/pop_burst),
//   * per-thread magazine caches over a lock-free packet pool — alloc,
//     release and add_ref never take a lock (PacketMagazine / PacketPool),
//   * precomputed fanout plans — each segment's version-copy list and
//     per-version reference counts are resolved at construction, not per
//     packet,
//   * a sharded, allocation-free merge table — one open-addressing
//     MergeTable per parallel segment with fixed-capacity arrival rows,
//   * batched result delivery — completed outputs and drops are buffered
//     thread-locally and the result lock is taken once per burst.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "dataplane/fanout_plan.hpp"
#include "dataplane/merge_ops.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "ring/backoff.hpp"
#include "ring/spsc_ring.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/owned_counter.hpp"
#include "telemetry/scalability_profiler.hpp"

namespace nfp {

namespace telemetry {
class HealthSampler;
class Watchdog;
}  // namespace telemetry

// How the compiled graph executes on the live dataplane:
//   kPipelined  one thread per NF plus a merger, connected by SPSC burst
//               rings — the paper's one-container-per-core deployment;
//   kRtc        fused run-to-completion — the caller's thread walks the
//               graph inline per packet: sequential hops are direct calls,
//               parallel segments fused branch-sequences with an inline
//               merge. No rings, no merger thread;
//   kAuto       resolved per graph at construction: sequential graphs take
//               kRtc (a pure win — the rings only added hand-off cost),
//               graphs with parallel segments keep kPipelined, whose
//               cross-thread execution is the paper's actual latency
//               mechanism. DESIGN.md "Execution modes" has the full rule.
enum class ExecMode : u8 { kPipelined = 0, kRtc = 1, kAuto = 2 };

// "pipelined" / "rtc" / "auto" (kAuto only appears pre-resolution).
const char* exec_mode_name(ExecMode mode) noexcept;
// Parses the CLI spelling; nullopt for anything else.
std::optional<ExecMode> parse_exec_mode(std::string_view name) noexcept;

struct LiveResult {
  // Delivered packets in merger-completion order, as raw frames.
  std::vector<std::vector<u8>> outputs;
  u64 dropped = 0;
  // Error status for misuse (run()/start() on an already-used pipeline);
  // ok on every normal completion.
  Status status;
};

// Hot-path knobs, constructor-configurable so benches can sweep them.
struct LivePipelineOptions {
  std::size_t ring_depth = 256;     // per-NF RX/TX ring capacity (pow2)
  std::size_t pool_size = 4096;     // shared packet-pool slots
  std::size_t in_flight_window = 0; // 0 => ring_depth / 4
  std::size_t magazine_size = 64;   // per-thread free-slot cache; 0 = none
  std::size_t burst_size = 32;      // ring burst granularity
  // When >= 0, every pipeline thread (NFs + merger) pins itself to this
  // core via cpu_affinity — the sharded dataplane's shared-nothing
  // one-core-per-shard placement. Pin failures degrade to unpinned
  // threads; affinity_applied() reports the outcome. A pinned pipelined
  // graph also switches its waits to WaitPolicy::kSharedCore.
  int pin_core = -1;
  // Per-thread cycle accounting for the scalability profiler. On by
  // default: the hot-path cost is one relaxed add to a thread-private
  // cacheline per loop iteration (bench_hotpath_throughput's noacct series
  // measures it). Off disables all bucket/wait attribution.
  bool cycle_accounting = true;
  // Latency-observatory sampling: stamp and stage-time 1 in N packets
  // (0 = off, the default). feed() samples pid % N; feed_stamped() lets the
  // sharded director pass its own flow-hash decision + origin stamp in.
  // Unsampled packets pay one zero-check branch per hop; sampled ones two
  // clock reads per NF hop (bench's lat32-acct/noacct pair gates the cost).
  std::size_t latency_sample_every = 0;
  // Execution mode (see ExecMode above). kAuto resolves at construction;
  // exec_mode() reports the resolved choice.
  ExecMode exec_mode = ExecMode::kPipelined;
};

class LivePipeline {
 public:
  // `factory` defaults to make_builtin_nf (instance id as seed).
  explicit LivePipeline(ServiceGraph graph,
                        std::function<std::unique_ptr<NetworkFunction>(
                            const StageNf&)> factory = {},
                        LivePipelineOptions options = {});
  ~LivePipeline();

  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  // Feeds `frames` through the graph and blocks until every packet has been
  // delivered or dropped. May be called once per pipeline; a second call
  // returns a LiveResult whose status carries the violation.
  LiveResult run(const std::vector<std::vector<u8>>& frames);

  // Streaming ingest, the API the sharded dataplane drives continuously:
  //   start()  spawn the worker threads, if any (once per pipeline — a
  //            second call errors, enforcing the run()-once contract);
  //   feed()   copy one frame in; single-ingest-thread discipline — only
  //            one thread may call feed(). Pipelined, it blocks under the
  //            in-flight window and pool backpressure (segment-0 rings are
  //            SPSC). Rtc, it returns with the packet delivered or dropped
  //            and tail-drops on a dry pool (kPoolExhausted, returns false):
  //            the feeding thread is the pool's only allocator, so waiting
  //            would spin forever;
  //   drain()  wait for every in-flight packet, stop and join the workers,
  //            and hand back the accumulated result.
  // run() is a start + feed-loop + drain composition.
  Status start();
  bool feed(std::span<const u8> frame);
  // feed() with the latency-sampling decision made by the caller:
  // origin_ns != 0 marks the packet sampled with that ingest timestamp
  // (the sharded director stamps at its own feed() so the span includes
  // director pool/ring/classify time); origin_ns == 0 means unsampled —
  // no fallback to the pid heuristic. Plain feed() self-samples by
  // pid % latency_sample_every when the knob is set.
  // `flow` (optional) is the caller's already-parsed flow identity (the
  // sharded director computes it once per frame); it is copied onto the
  // pipeline's packet so drop exemplars and flow accounting reuse it
  // instead of reparsing. nullptr leaves the packet's FlowRef invalid and
  // drop paths parse lazily (they are cold).
  bool feed_stamped(std::span<const u8> frame, u64 origin_ns,
                    const FlowRef* flow = nullptr);
  LiveResult drain();

  NetworkFunction* nf(std::size_t segment, std::size_t index);

  const LivePipelineOptions& options() const noexcept { return opts_; }
  // The resolved execution mode (never kAuto after construction).
  ExecMode exec_mode() const noexcept { return opts_.exec_mode; }
  // How this pipeline's threads wait (ring/backoff.hpp): kSharedCore for a
  // pipelined graph with pin_core >= 0, whose NF threads, merger and feeder
  // all share that one core; kOwnCore otherwise (an rtc graph spawns no
  // threads, an unpinned one lets the scheduler spread them). Every wait
  // of the NF loops, the merger and feed()/feed_stamped() follows it.
  WaitPolicy wait_policy() const noexcept { return wait_policy_; }

  // Health-instrumentation surface. Workers are indexed NFs-in-graph-order
  // first, then the merger last; all reads are safe from a sampler thread
  // while run() executes. An rtc pipeline has no workers (worker_count()
  // is 0): its caller's thread, whose own heartbeat covers it, does the
  // work.
  std::size_t worker_count() const;
  std::string worker_name(std::size_t w) const;
  // Steady-clock ns of the worker's last loop iteration; 0 until the worker
  // starts. A worker wedged inside an NF's process() stops beating.
  u64 worker_heartbeat_ns(std::size_t w) const;
  u64 worker_packets(std::size_t w) const;
  std::size_t ring_depth_in(std::size_t w) const;   // merger: 0
  std::size_t ring_depth_out(std::size_t w) const;  // merger: 0
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_capacity() const { return pool_.capacity(); }
  u64 dropped_so_far() const { return dropped_.read(); }
  u64 delivered_so_far() const { return delivered_.read(); }
  // Per-reason drop attribution: every path that counts a drop into the
  // result also tags exactly one DropReason, so the sum over reasons
  // equals dropped_so_far() once the pipeline is drained (the flow
  // observatory's taxonomy invariant).
  u64 dropped_by(telemetry::DropReason reason) const;
  // Optional sink for sampled drop exemplars (5-tuple, stage, reason,
  // timestamp); the sharded dataplane points every pipeline of a shard at
  // the shard's ring. Call before start().
  void set_drop_exemplar_ring(telemetry::DropExemplarRing* ring);
  // Allocator-pressure counters: batch refills/flushes between the
  // per-thread magazines and the shared pool, and detected refcount
  // underflows. Exported via register_health for `nfp_cli top`.
  u64 magazine_refills() const {
    return mag_refill_total_.load(std::memory_order_relaxed);
  }
  u64 magazine_flushes() const {
    return mag_flush_total_.load(std::memory_order_relaxed);
  }
  u64 refcnt_underflows() const { return pool_.refcnt_underflow_total(); }
  // Pin outcome under options().pin_core: true once every spawned thread
  // that attempted a pin succeeded (false with pin_core < 0, on platforms
  // without affinity support, or when the kernel rejected the mask).
  bool affinity_applied() const {
    const u64 attempts = affinity_attempts_.load(std::memory_order_relaxed);
    return attempts > 0 &&
           affinity_ok_.load(std::memory_order_relaxed) == attempts;
  }
  u64 affinity_attempts() const {
    return affinity_attempts_.load(std::memory_order_relaxed);
  }
  // Scrape-time fold of every thread's cycle buckets plus the pool/ring
  // contention evidence (zeroed buckets when cycle_accounting is off, and
  // in rtc, whose cycles are its caller's). Safe from a profiler/sampler
  // thread while the pipeline runs.
  telemetry::ShardScalabilitySnapshot scalability_snapshot() const;
  // Scrape-time fold of every thread's stage-latency histograms plus the
  // current ring occupancy (queue_depth). Zero histograms when
  // latency_sample_every is 0. Safe from an observatory thread while the
  // pipeline runs.
  telemetry::ShardLatencySnapshot latency_snapshot() const;
  // Feed-side wait time (in-flight window + pool alloc + segment-0 ring),
  // already inside the snapshot's ring/pool buckets; exposed separately so
  // the sharded dataplane can carve it out of its worker's useful time.
  // Always 0 in rtc, which never waits.
  u64 feeder_wait_ns() const;
  // Registers ring/pool/heartbeat probes on `sampler` and stall / pool /
  // drop-spike rules on `watchdog` (null to skip). Call before run().
  // A non-empty `shard` tags every probe with a {"shard", ...} label and
  // prefixes watchdog component names so S shards coexist in one registry.
  void register_health(telemetry::HealthSampler& sampler,
                       telemetry::Watchdog* watchdog,
                       const std::string& shard = {});

 private:
  // NF → merger hand-off. The drop intent travels out-of-band rather than
  // on the packet's nil bit: parallel NFs sharing one packet version would
  // otherwise race writing set_nil() on the same Packet (TSan-visible, and
  // one sender's intent could clobber another's).
  struct MergeEnvelope {
    Packet* pkt = nullptr;
    bool drop_intent = false;
    // Latency spans for sampled packets (zero otherwise): parallel NFs
    // report out-of-band for the same no-shared-packet-writes reason as
    // drop_intent. out_ns is the push timestamp the merger subtracts to
    // get merge-wait on the critical branch.
    u64 queue_ns = 0;
    u64 service_ns = 0;
    u64 out_ns = 0;
  };

  // The thread, rings and per-thread telemetry of one pipelined NF.
  struct NfWorker {
    explicit NfWorker(std::size_t ring_depth)
        : in(ring_depth), out(ring_depth) {}
    // Fed by the feeder, the previous segment's NF or the merger.
    SpscRing<Packet*> in;
    // Outbound ring to the merger; unused on sequential hops.
    SpscRing<MergeEnvelope> out;
    std::thread thread;
    std::atomic<u64> heartbeat_ns{0};
    std::atomic<u64> processed{0};
    // Thread-private cycle buckets; null when cycle_accounting is off.
    std::unique_ptr<telemetry::CycleCounters> cycles;
    // Thread-private stage-latency histograms; null when
    // latency_sample_every is 0.
    std::unique_ptr<telemetry::StageLatencyBlock> lat_block;
  };

  struct LiveNf {
    StageNf meta;
    std::unique_ptr<NetworkFunction> impl;
    // Drop-exemplar stage and worker name: "nf:<name>#<id>" pipelined,
    // "rtc:<name>#<id>" fused.
    std::string stage;
    // Pipelined only: an rtc pipeline spawns no threads.
    std::unique_ptr<NfWorker> worker;
  };

  bool pipelined() const noexcept {
    return opts_.exec_mode == ExecMode::kPipelined;
  }

  // Builds a thread's magazine wired to this pipeline's counters.
  PacketMagazine make_magazine();

  // Raises stop_ and joins every NF thread and the merger (none in rtc).
  void stop_workers();

  // Applies opts_.pin_core to the calling pipeline thread, keeping the
  // attempt/success tally behind affinity_applied().
  void maybe_pin_current_thread();

  // Copies the frame into `pkt` and gives it the next pid, the caller's
  // FlowRef and, when sampled, its ingest span.
  void admit(Packet* pkt, std::span<const u8> frame, u64 origin_ns,
             const FlowRef* flow);

  void nf_loop(std::size_t seg_idx, std::size_t nf_idx);
  void merger_loop();
  // Distributes a packet into segment `seg_idx` using the caller's
  // magazine; returns false on pool exhaustion (fanout copies already made
  // are released; `pkt` itself stays with the caller, which records the
  // drop reason and releases it). Contended ring pushes are credited to
  // the caller's accountant as ring_wait (null to skip).
  bool enter_segment(std::size_t seg_idx, Packet* pkt, PacketMagazine& mag,
                     telemetry::CycleAccountant* acct);

  // Rtc: walks the graph from segment 0 to delivery or drop. Owns `pkt`.
  void run_to_completion(Packet* pkt);
  // Rtc: runs one parallel segment's branches in declaration order and
  // merges them; returns the survivor (`pkt`) or nullptr once dropped.
  Packet* run_fused_segment(std::size_t seg_idx, Packet* pkt);
  // Rtc: tags, releases and counts one dropped packet.
  void drop_fused(Packet* pkt, telemetry::DropReason reason,
                  const char* stage);

  // Tags one dropped packet with its reason (relaxed counter) and samples
  // it into the exemplar ring when one is attached. Cold path by
  // definition — dropping is the exception.
  void note_drop(telemetry::DropReason reason, const char* stage,
                 const FlowRef* flow);

  // Pipelined: flushes a thread-local result batch under one result_mu_
  // acquisition and retires the completed packets from the in-flight
  // window.
  void commit_batch(std::vector<std::vector<u8>>& outputs, u64 drops,
                    u64 completed);

  // Records all six stage spans for a sampled packet into `block` at
  // delivery time `now` (egress = saturating remainder, so the stages
  // telescope to total by construction). No-op when origin_ns == 0.
  static void finalize_latency(const Packet& pkt,
                               telemetry::StageLatencyBlock* block, u64 now);

  // Resolves a worker index to its LiveNf, or nullptr for the merger slot.
  const LiveNf* worker_nf(std::size_t w) const;

  ServiceGraph graph_;
  LivePipelineOptions opts_;
  WaitPolicy wait_policy_ = WaitPolicy::kOwnCore;
  PacketPool pool_;
  std::vector<std::vector<LiveNf>> segments_;
  std::vector<FanoutPlan> fanout_;
  std::thread merger_thread_;
  std::atomic<u64> merger_heartbeat_ns_{0};
  std::atomic<u64> merger_merges_{0};
  // Merger / feed-side accounting blocks; null when accounting is off or
  // the mode is rtc (its work is the caller's useful time, and it never
  // waits).
  std::unique_ptr<telemetry::CycleCounters> merger_cycles_;
  std::unique_ptr<telemetry::CycleCounters> feeder_cycles_;
  // Stage-latency block of whoever delivers from a merge (the merger
  // thread) or inline (the rtc feeding thread); null when sampling is off.
  std::unique_ptr<telemetry::StageLatencyBlock> lat_block_;
  // Backoff::pause calls spent in feed()'s window/alloc waits.
  std::atomic<u64> feeder_spin_total_{0};
  // Rtc scratch: one arrival per branch of the widest segment, reserved at
  // construction.
  std::vector<MergeArrival> fused_arrivals_;

  // Aggregated magazine traffic across all pipeline threads.
  std::atomic<u64> mag_refill_total_{0};
  std::atomic<u64> mag_flush_total_{0};

  // Streaming lifecycle: kNew --start()--> kRunning --drain()--> kFinished.
  // The CASes in start() and drain() turn the documented run-once contract
  // into an enforced one.
  enum class RunState : int { kNew = 0, kRunning = 1, kFinished = 2 };
  std::atomic<RunState> state_{RunState::kNew};
  // Ingest-thread state; feed() is single-threaded by contract, so these
  // need no synchronisation beyond the pipeline lifecycle itself.
  std::unique_ptr<PacketMagazine> feeder_mag_;
  u64 next_pid_ = 0;

  std::atomic<u64> affinity_attempts_{0};
  std::atomic<u64> affinity_ok_{0};

  std::atomic<bool> stop_{false};
  std::atomic<u64> in_flight_{0};
  // Delivered frames. Pipelined threads append under result_mu_; rtc's
  // feeding thread is the only writer and appends without it.
  std::mutex result_mu_;
  LiveResult result_;
  // Scrape-safe progress: written under result_mu_ when pipelined, by the
  // feeding thread alone when rtc — one writer at a time either way, so no
  // per-packet atomic RMW.
  telemetry::OwnedCounter delivered_;
  telemetry::OwnedCounter dropped_;

  // Drop-reason taxonomy: one relaxed counter per reason (any pipeline
  // thread may drop) plus the optional shared exemplar ring.
  std::array<std::atomic<u64>, telemetry::kDropReasonCount> drop_reasons_{};
  telemetry::DropExemplarRing* drop_exemplars_ = nullptr;
};

}  // namespace nfp
