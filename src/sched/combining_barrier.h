// Combining-tree barrier with a fused reduction riding the arrival pass.
//
// A flat barrier (the SpinBarrier + AtomicTimeMin reference pair in
// tests/barrier_sync.h) funnels every arrival through one generation word and
// the window update through a second global CAS line, so each
// phase costs P round-trips on two contended cache lines. Here arrivals climb
// a fan-in-4 tree of cache-line-aligned nodes instead: each party writes its
// partial reduction — {min next-event timestamp, event count, stop flags} —
// into its own padded leaf slot, the last arriver at each node combines its
// children and carries the partial result upward, and the party that completes
// the root publishes the fully reduced values and releases everyone with a
// single generation broadcast. One tree traversal per phase replaces the
// three separate global atomics (barrier word, AtomicTimeMin, stop check) the
// round kernels used to hit, and contention per cache line is bounded by the
// fan-in instead of growing with P.
//
// All three reduction operators (min over int64, sum over uint64, bitwise or)
// are associative and commutative, so the tree combine is bit-identical to
// the flat CAS fold regardless of arrival order — the determinism tests hold
// with no caveats.
//
// The pre-park spin depends on whether every party can have a core. The
// constructor takes the usable core count: while parties <= cores, a waiter
// polls up to kIdleCoreSpin times, with a pause hint per poll and a yield
// every 8 polls, before it parks. The party it waits for is running, so a
// futex round-trip per crossing would cost more than the whole round. The
// spin stays bounded, and its yields hand the CPU over when other processes
// crowd the host. When parties exceed the cores (or the count is unknown,
// 0), a waiter's spinning steals the CPU the straggler needs, so the budget
// is adaptive: the root completer compares the futex parks of the finished
// generation against the party count and halves the budget when most
// waiters parked anyway, or doubles it when everyone made it by spinning.
// Cumulative parks are exposed so the trace layer can report per-round park
// deltas.
//
// Like std::barrier's completion step, an arrival may name a completion: a
// plain function pointer plus a context. The root completer runs it once per
// generation, after it publishes the reduction (so the completion can read
// reduced_*()) and before it releases the parties, while every other party is
// still waiting. Whatever the completion writes is published to every party
// by the release, so it can do serial work that would otherwise need a
// barrier of its own on each side: the round kernels compute the next window
// there. Every party of one generation must pass the same completion.
#ifndef UNISON_SRC_SCHED_COMBINING_BARRIER_H_
#define UNISON_SRC_SCHED_COMBINING_BARRIER_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace unison {

class CombiningBarrier {
 public:
  static constexpr uint32_t kFanIn = 4;
  // Reduced-flags bits. kStopFlag ORs the parties' stop votes so the
  // coordinator's stop check needs no extra shared load. kSpecMissFlag rides
  // the same reduction: a worker that detected a causality violation while a
  // speculative window is active (an inbound arrival at or below an LP's
  // already-advanced clock) ORs it into its end-of-round arrival, and the
  // coordinator's next RoundSync::ComputeWindow latches the miss.
  // kGlobalFlag marks a round whose global phase has work: the unison
  // round crosses its global-phase barrier only when some party set it.
  static constexpr uint32_t kStopFlag = 1u << 0;
  static constexpr uint32_t kSpecMissFlag = 1u << 1;
  static constexpr uint32_t kGlobalFlag = 1u << 2;

  // Serial step run by the root completer; see the file comment.
  using Completion = void (*)(void* context);

  // Adaptive spin-budget bounds when parties exceed the cores (iterations of
  // the pre-park generation poll).
  static constexpr uint32_t kMinSpin = 16;
  static constexpr uint32_t kMaxSpin = 4096;
  static constexpr uint32_t kInitialSpin = 64;
  // Fixed pre-park spin while parties <= cores.
  static constexpr uint32_t kIdleCoreSpin = 16384;

  // `cores` is the number of CPUs the parties may run on (0 = unknown, which
  // takes the adaptive, oversubscribed path).
  explicit CombiningBarrier(uint32_t parties, uint32_t cores = 0);

  CombiningBarrier(const CombiningBarrier&) = delete;
  CombiningBarrier& operator=(const CombiningBarrier&) = delete;

  // Plain barrier crossing: contributes the identity of every reduction.
  void Arrive(uint32_t party) { Arrive(party, INT64_MAX, 0, 0); }

  // Barrier crossing that contributes {min_ps, count, flags} to this
  // generation's reduction. Blocks until all parties have arrived; on return
  // the reduced_*() accessors hold the generation's combined values, which
  // stay valid until this party arrives for the next generation (nobody can
  // complete a newer generation without this party's arrival). A non-null
  // `completion` runs once, on the root completer, before the release.
  void Arrive(uint32_t party, int64_t min_ps, uint64_t count, uint32_t flags,
              Completion completion = nullptr, void* context = nullptr);

  // Reduction results of the last completed generation.
  int64_t reduced_min() const { return result_min_; }
  uint64_t reduced_count() const { return result_count_; }
  uint32_t reduced_flags() const { return result_flags_; }

  uint32_t parties() const { return parties_; }
  // True when every party has a core, so waiters spin kIdleCoreSpin polls.
  bool spins_on_idle_cores() const { return idle_cores_; }
  // Cumulative futex parks across all generations (trace/bench counter).
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }
  // Current pre-park spin budget (bench/test visibility).
  uint32_t spin_budget() const {
    return spin_budget_.load(std::memory_order_relaxed);
  }

 private:
  // One tree node: the arrival counter and child-slot lines are padded so the
  // only line shared between sibling subtrees is the node's own control line,
  // and a party's partial-reduction store never false-shares with another
  // leaf's. Layout: one control line + kFanIn slot lines per node.
  struct alignas(64) Slot {
    int64_t min_ps;
    uint64_t count;
    uint32_t flags;
  };
  struct alignas(64) Node {
    std::atomic<uint32_t> remaining{0};
    uint32_t arity = 0;        // Children actually attached (<= kFanIn).
    int32_t parent = -1;       // Node index, -1 at the root.
    uint32_t parent_slot = 0;  // This node's slot index in the parent.
    Slot slots[kFanIn];
  };

  void Wait(uint32_t gen);
  void AdaptSpin();

  const uint32_t parties_;
  const bool idle_cores_;
  uint32_t num_nodes_ = 0;
  std::unique_ptr<Node[]> nodes_;

  // Reduced results of the last completed generation. Written only by the
  // root completer before it bumps generation_ (release); read by the other
  // parties after they observe the bump (acquire) — and by the completer
  // itself in program order — so plain fields suffice.
  int64_t result_min_ = INT64_MAX;
  uint64_t result_count_ = 0;
  uint32_t result_flags_ = 0;
  // Parks observed when the spin budget was last adapted. Root-completer
  // private: successive completers are ordered by the barrier itself.
  uint64_t last_parks_ = 0;

  // The broadcast word lives on its own line: every waiter polls it, and the
  // tree exists precisely so that polling traffic never lands on the lines
  // arrivals are writing.
  alignas(64) std::atomic<uint32_t> generation_{0};
  std::atomic<uint32_t> spin_budget_;
  std::atomic<uint64_t> parks_{0};
};

}  // namespace unison

#endif  // UNISON_SRC_SCHED_COMBINING_BARRIER_H_
