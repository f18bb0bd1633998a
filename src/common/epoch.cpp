#include "common/epoch.hpp"

#include "ring/backoff.hpp"

namespace nfp {

// One per thread per domain, cacheline-private to its owner so a pin/unpin
// never dirties a line any other reader touches. `depth` is owner-only
// state (guard nesting); `pinned` is the only cross-thread field.
struct alignas(kCacheLineSize) EpochSlot {
  std::atomic<u64> pinned{0};  // 0 = quiescent, else the pinned epoch
  u32 depth = 0;
  std::atomic<bool> in_use{true};
  EpochSlot* next = nullptr;  // immutable once published
};

namespace {

// Registers on first use, hands the slot back for reuse at thread exit.
struct ThreadSlotHandle {
  EpochSlot* slot = nullptr;
  ~ThreadSlotHandle() {
    if (slot != nullptr) {
      // No guard can be live at thread exit (guards are scoped); release
      // pairs with the acquire CAS of the next thread adopting the slot.
      slot->in_use.store(false, std::memory_order_release);
    }
  }
};

thread_local ThreadSlotHandle t_slot;

}  // namespace

EpochDomain& EpochDomain::global() {
  static EpochDomain domain;
  return domain;
}

EpochSlot* EpochDomain::slot_for_current_thread() {
  if (t_slot.slot != nullptr) return t_slot.slot;
  // Adopt a slot abandoned by an exited thread before growing the list.
  for (EpochSlot* s = head_.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    bool expected = false;
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      t_slot.slot = s;
      return s;
    }
  }
  auto* fresh = new EpochSlot();
  EpochSlot* old_head = head_.load(std::memory_order_relaxed);
  do {
    fresh->next = old_head;
  } while (!head_.compare_exchange_weak(old_head, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  t_slot.slot = fresh;
  return fresh;
}

EpochDomain::Guard::Guard(EpochDomain& domain)
    : slot_(domain.slot_for_current_thread()) {
  if (slot_->depth++ > 0) return;  // outer guard's (older) pin covers us
  slot_->pinned.store(domain.epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  // Fence (A) of the header's contract: orders the pin before the
  // protected pointer load against a writer's scan.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

EpochDomain::Guard::~Guard() {
  if (--slot_->depth == 0) {
    slot_->pinned.store(0, std::memory_order_release);
  }
}

void EpochDomain::synchronize() {
  const u64 target = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Fence (B): after it, any reader still holding a pre-bump pin is
  // visible to the scan below (see the Dekker argument in the header).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (EpochSlot* s = head_.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    Backoff backoff(WaitPolicy::kOwnCore);
    for (;;) {
      const u64 pinned = s->pinned.load(std::memory_order_acquire);
      if (pinned == 0 || pinned >= target) break;
      backoff.pause();
    }
  }
}

}  // namespace nfp
