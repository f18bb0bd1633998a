// Micro-benchmarks (google-benchmark) of the real data-structure hot paths
// backing the simulated dataplane: rings, pool, header/full copies, LPM,
// ACL, per-flow tables, AES, checksums, merging and policy compilation. These measure the
// actual C++ implementations on this host (not simulated time).
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "acl/acl.hpp"
#include "common/cpu_affinity.hpp"
#include "crypto/aes128.hpp"
#include "dpi/aho_corasick.hpp"
#include "flow/flow_table.hpp"
#include "lpm/lpm_table.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/packet_pool.hpp"
#include "common/rng.hpp"
#include "policy/parser.hpp"
#include "ring/backoff.hpp"
#include "ring/spsc_ring.hpp"

namespace nfp {
namespace {

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<void*> ring(1024);
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push(&x));
    void* out;
    benchmark::DoNotOptimize(ring.pop(out));
  }
}
BENCHMARK(BM_SpscRingPushPop);

// The cross-thread ring hop on a shared core, which BM_SpscRingPushPop
// (an isolated push/pop on one thread) cannot see: a producer and a
// consumer pinned to the same CPU pass 32-packet bursts through an SpscRing
// one burst deep, so every hand-off needs the other thread to run. Both
// wait under the argument's WaitPolicy (0 = own_core, 1 = shared_core);
// ns_per_handoff is the wall time per burst moved.
void BM_SharedCoreHandoff(benchmark::State& state) {
  constexpr std::size_t kBurst = 32;
  constexpr std::size_t kHandoffs = 512;  // per iteration
  const auto policy = static_cast<WaitPolicy>(state.range(0));
  state.SetLabel(policy == WaitPolicy::kSharedCore ? "shared_core"
                                                    : "own_core");
  double total_ns = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    SpscRing<Packet*> ring(kBurst);
    std::atomic<int> ready{0};
    bool pinned[2] = {false, false};
    std::chrono::steady_clock::time_point t0;
    std::chrono::steady_clock::time_point t1;
    std::thread consumer([&] {
      pinned[1] = pin_current_thread_to_core(0);
      ready.fetch_add(1);
      std::array<Packet*, kBurst> out{};
      Backoff backoff(policy);
      for (std::size_t got = 0; got < kHandoffs * kBurst;) {
        const std::size_t n = ring.pop_burst(out);
        if (n == 0) {
          backoff.pause();
          continue;
        }
        backoff.reset();
        got += n;
      }
      t1 = std::chrono::steady_clock::now();
    });
    std::thread producer([&] {
      pinned[0] = pin_current_thread_to_core(0);
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      // Placeholder pointers: the ring only moves them.
      const std::array<Packet*, kBurst> burst{};
      Backoff backoff(policy);
      t0 = std::chrono::steady_clock::now();
      for (std::size_t h = 0; h < kHandoffs; ++h) {
        for (std::size_t sent = 0; sent < kBurst;) {
          const std::size_t m = ring.push_burst(
              std::span<Packet* const>(burst).subspan(sent));
          if (m == 0) {
            backoff.pause();
            continue;
          }
          backoff.reset();
          sent += m;
        }
      }
    });
    producer.join();
    consumer.join();
    if (!pinned[0] || !pinned[1]) {
      state.SkipWithError("sched_setaffinity denied: cannot pin to CPU 0");
      break;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    state.SetIterationTime(ns / 1e9);
    total_ns += ns;
    ++rounds;
  }
  if (rounds > 0) {
    state.counters["ns_per_handoff"] =
        total_ns / static_cast<double>(rounds * kHandoffs);
  }
}
BENCHMARK(BM_SharedCoreHandoff)->Arg(0)->Arg(1)->UseManualTime();

void BM_PoolAllocRelease(benchmark::State& state) {
  PacketPool pool(256);
  for (auto _ : state) {
    Packet* p = pool.alloc(64);
    benchmark::DoNotOptimize(p);
    pool.release(p);
  }
}
BENCHMARK(BM_PoolAllocRelease);

void BM_HeaderOnlyCopy(benchmark::State& state) {
  PacketPool pool(8);
  PacketSpec spec;
  spec.frame_size = static_cast<std::size_t>(state.range(0));
  Packet* src = build_packet(pool, spec);
  for (auto _ : state) {
    Packet* copy = pool.clone_header_only(*src);
    benchmark::DoNotOptimize(copy);
    pool.release(copy);
  }
  pool.release(src);
}
BENCHMARK(BM_HeaderOnlyCopy)->Arg(64)->Arg(724)->Arg(1500);

void BM_FullCopy(benchmark::State& state) {
  PacketPool pool(8);
  PacketSpec spec;
  spec.frame_size = static_cast<std::size_t>(state.range(0));
  Packet* src = build_packet(pool, spec);
  for (auto _ : state) {
    Packet* copy = pool.clone_full(*src);
    benchmark::DoNotOptimize(copy);
    pool.release(copy);
  }
  pool.release(src);
}
BENCHMARK(BM_FullCopy)->Arg(64)->Arg(724)->Arg(1500);

void BM_LpmLookup(benchmark::State& state) {
  const LpmTable table = LpmTable::with_synthetic_routes(1000);
  u32 addr = 0x0A000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(addr));
    addr = addr * 2654435761u + 1;
  }
}
BENCHMARK(BM_LpmLookup);

void BM_AclEvaluate(benchmark::State& state) {
  const AclTable table = AclTable::with_synthetic_rules(100);
  u32 x = 1;
  for (auto _ : state) {
    const FiveTuple t{x, x * 3, static_cast<u16>(x), static_cast<u16>(x * 7),
                      6};
    benchmark::DoNotOptimize(table.evaluate(t));
    x = x * 2654435761u + 1;
  }
}
BENCHMARK(BM_AclEvaluate);

// FlowTable hit path: 512 resident flows, each op a touch() of one of them
// (the microflow cache's steady state).
void BM_FlowTableHit(benchmark::State& state) {
  constexpr u32 kFlows = 512;
  FlowTable<u64> table(65536);
  for (u32 f = 0; f < kFlows; ++f) {
    table.get_or_create({0x0A000000 + f, 0x0B000001, 1000, 80, 6}) = f;
  }
  u32 f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.touch({0x0A000000 + f, 0x0B000001, 1000, 80, 6}));
    f = (f + 1) % kFlows;
  }
}
BENCHMARK(BM_FlowTableHit);

// FlowTable churn at capacity: every op inserts a fresh 5-tuple, so each
// is a miss, an LRU eviction and an insert (a SYN flood through the
// microflow cache, /1024, or a monitor, /65536).
void BM_FlowTableChurn(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  FlowTable<u64> table(capacity);
  u64 next = 0;
  const auto fresh = [&next] {
    const u64 n = next++;
    return FiveTuple{0x0A000000 + static_cast<u32>(n), 0x0B000001,
                     static_cast<u16>(n >> 32), 80, 6};
  };
  for (std::size_t i = 0; i < capacity; ++i) table.get_or_create(fresh());
  for (auto _ : state) {
    benchmark::DoNotOptimize(++table.get_or_create(fresh()));
  }
}
BENCHMARK(BM_FlowTableChurn)->Arg(1024)->Arg(65536);

void BM_AesEncryptBlock(benchmark::State& state) {
  Aes128 aes(Aes128::Key{0x2b});
  u8 block[16] = {1, 2, 3};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesCtrPayload(benchmark::State& state) {
  Aes128 aes(Aes128::Key{0x2b});
  std::vector<u8> payload(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    aes.ctr_crypt(0x1234, payload);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
  state.SetLabel(Aes128::hardware_accelerated() ? "aes-ni" : "bytewise");
}
BENCHMARK(BM_AesCtrPayload)->Arg(64)->Arg(724)->Arg(1460);

// The VPN's AH ICV: serial CBC-MAC, one block at a time.
void BM_AesIcvPayload(benchmark::State& state) {
  Aes128 aes(Aes128::Key{0x2b});
  const std::vector<u8> payload(static_cast<std::size_t>(state.range(0)),
                                0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.icv(payload));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
  state.SetLabel(Aes128::hardware_accelerated() ? "aes-ni" : "bytewise");
}
BENCHMARK(BM_AesIcvPayload)->Arg(64)->Arg(724)->Arg(1460);

// Multi-pattern matching: Aho-Corasick single pass vs naive per-signature
// scan over a 1KB payload with 100 signatures (the IDS workload).
void BM_AhoCorasick100Sigs(benchmark::State& state) {
  std::vector<std::string> sigs;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::string sig;
    for (int j = 0; j < 8; ++j) {
      sig.push_back(static_cast<char>('A' + rng.bounded(26)));
    }
    sigs.push_back(std::move(sig));
  }
  const AhoCorasick ac(sigs);
  std::vector<u8> payload(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.contains(payload));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_AhoCorasick100Sigs);

void BM_NaiveScan100Sigs(benchmark::State& state) {
  std::vector<std::string> sigs;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::string sig;
    for (int j = 0; j < 8; ++j) {
      sig.push_back(static_cast<char>('A' + rng.bounded(26)));
    }
    sigs.push_back(std::move(sig));
  }
  const std::string payload(1024, 'x');
  for (auto _ : state) {
    bool hit = false;
    for (const auto& sig : sigs) {
      hit |= payload.find(sig) != std::string::npos;
    }
    benchmark::DoNotOptimize(hit);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_NaiveScan100Sigs);

void BM_Ipv4Checksum(benchmark::State& state) {
  u8 header[20] = {0x45, 0, 0, 0x73};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipv4_checksum(header));
  }
}
BENCHMARK(BM_Ipv4Checksum);

void BM_PolicyCompile(benchmark::State& state) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  const auto policy = parse_policy(
      "policy p\nchain(vpn, monitor, ids, firewall, gateway, lb)");
  for (auto _ : state) {
    auto graph = compile_policy(policy.value(), table);
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_PolicyParse(benchmark::State& state) {
  const char* text =
      "policy p\nposition(vpn, first)\norder(firewall, before, lb)\n"
      "order(monitor, before, lb)\npriority(ips > firewall)\nnf(shaper)";
  for (auto _ : state) {
    auto policy = parse_policy(text);
    benchmark::DoNotOptimize(policy);
  }
}
BENCHMARK(BM_PolicyParse);

}  // namespace
}  // namespace nfp

BENCHMARK_MAIN();
