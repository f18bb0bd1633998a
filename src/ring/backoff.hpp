// Tiered busy-wait backoff for ring producers/consumers.
//
// The live pipeline's threads wait on ring space the way a DPDK poll-mode
// driver waits on a NIC queue: never blocking in the kernel. What a wait
// should do first depends on where the awaited thread runs, so every
// Backoff is built with the placement of its waiter (WaitPolicy):
//
//   kOwnCore     the waiter has a core to itself (the director, the rtc
//                shard worker, epoch reclamation), so the peer it waits on
//                runs elsewhere and may be only cycles away. The ladder is
//                  spin  — a handful of empty iterations for sub-100ns
//                          waits,
//                  pause — the CPU's spin-wait hint (x86 PAUSE / ARM
//                          YIELD), which de-prioritizes the hardware
//                          thread and cuts the spin loop's exit penalty;
//                          ~75 of them (~1.8 µs at ~23 ns each) before
//                  yield — hand the core to the scheduler.
//   kSharedCore  the waiter shares its core with the threads it waits on
//                (a pipelined shard pins its worker, every NF thread and
//                the merger to one core). The peer cannot make progress
//                until the waiter gets off the core, so every spin or
//                pause is time lost outright: yield on the first step.
//
// The policy is decided once from the thread placement the caller already
// knows (LivePipeline::wait_policy()) and passed in explicitly; there is
// no global or thread-local switch.
#pragma once

#include <thread>

#include "common/types.hpp"

namespace nfp {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause" ::: "memory");
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

enum class WaitPolicy : u8 { kOwnCore = 0, kSharedCore = 1 };

class Backoff {
 public:
  explicit Backoff(WaitPolicy policy) noexcept
      : round_(policy == WaitPolicy::kSharedCore ? kYieldRound : 0),
        first_round_(round_) {}

  // One wait step; escalates spin -> pause -> yield across calls
  // (kSharedCore starts at yield).
  void pause() noexcept {
    ++total_;
    if (round_ < kSpinRounds) {
      ++round_;
    } else if (round_ < kYieldRound) {
      ++round_;
      // Exponentially widening pause bursts within the tier.
      const u32 reps = 1u << ((round_ - kSpinRounds) / 4);
      for (u32 i = 0; i < reps; ++i) cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  // Call after the awaited condition held so the next wait starts cheap.
  void reset() noexcept { round_ = first_round_; }

  // Cumulative pause() calls over the object's lifetime (reset() does not
  // clear it). Backoff objects are thread-local, so a plain counter is
  // enough; the scalability profiler reads it after the wait loop exits.
  u64 total_pauses() const noexcept { return total_; }

 private:
  static constexpr u32 kSpinRounds = 4;
  static constexpr u32 kPauseRounds = 16;
  static constexpr u32 kYieldRound = kSpinRounds + kPauseRounds;
  u32 round_;
  u32 first_round_;
  u64 total_ = 0;
};

}  // namespace nfp
