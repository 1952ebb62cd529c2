// Flat (centralized) synchronization primitives, kept outside the library as
// the baseline the combining tree is measured against.
//
// The round kernels do not use these — they arrive at a CombiningBarrier
// (src/sched/combining_barrier.h), whose tree pass fuses the barrier with the
// window min-reduction. SpinBarrier survives as the flat contender in
// bench_round_sync and AtomicTimeMin as the reference implementation the
// CombiningBarrier equivalence tests fold against.
//
// SpinBarrier is a centralized sense-reversing spin barrier built on C++20
// atomic wait/notify: waiters block in the kernel futex after a short spin,
// which keeps it cheap when threads are balanced and polite when they are
// not, or when the host has fewer cores than parties.
#ifndef UNISON_TESTS_BARRIER_SYNC_H_
#define UNISON_TESTS_BARRIER_SYNC_H_

#include <atomic>
#include <cstdint>

namespace unison {

class SpinBarrier {
 public:
  explicit SpinBarrier(uint32_t parties) : parties_(parties), remaining_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  // Blocks until all parties have arrived. The last arriver releases the
  // rest and resets the barrier for reuse.
  void Arrive() {
    const uint32_t gen = generation_.load(std::memory_order_acquire);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.store(parties_, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      generation_.notify_all();
      return;
    }
    // Brief spin before parking: phase imbalance is usually microseconds.
    for (int i = 0; i < 64; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) {
        return;
      }
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  const uint32_t parties_;
  std::atomic<uint32_t> remaining_;
  std::atomic<uint32_t> generation_{0};
};

// Atomic min-reduction over Time values encoded as int64 picoseconds, used by
// the window-update phase to combine per-thread partial minima without locks.
class AtomicTimeMin {
 public:
  void Reset() { value_.store(INT64_MAX, std::memory_order_relaxed); }

  void Update(int64_t candidate) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (candidate < cur &&
           !value_.compare_exchange_weak(cur, candidate, std::memory_order_acq_rel)) {
    }
  }

  int64_t Get() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> value_{INT64_MAX};
};

}  // namespace unison

#endif  // UNISON_TESTS_BARRIER_SYNC_H_
