// The shared coordinator prologue of the round-synchronized kernels.
//
// RoundSync is the single implementation of the start-of-round logic: fold
// the executors' min-reduction into the Eq. 2 LBTS, run the
// stop/termination check, and open the profiler/trace round, parameterized
// by kernel name. The cross-kernel time-composition comparisons (Figs.
// 5b/9b/13) are only trustworthy when every kernel runs identically-audited
// machinery. RoundKernel (round_kernel.h) owns one instance and drives it for
// the barrier and Unison kernels (kHybrid included); the null-message kernel
// keeps its channel-local windows (it has no global rounds) but uses
// BeginRun for the same run-level bookkeeping.
//
// The reduction inputs do not arrive through a shared CAS line: executors
// contribute their partial {min, event count, flags} to the
// CombiningBarrier's fused arrival pass (RoundKernel::Reduce), and the
// barrier's completion step Absorb()s the tree's published result. Every
// method here is coordinator-only: called from that completion, which runs
// once per round on whichever executor completes the barrier while the
// others wait, or by executor 0 between barriers.
#ifndef UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_
#define UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_

#include <cstdint>
#include <vector>

#include "src/core/time.h"
#include "src/kernel/kernel.h"
#include "src/sched/combining_barrier.h"

namespace unison {

class RoundSync {
 public:
  explicit RoundSync(Kernel* kernel) : kernel_(kernel) {}

  RoundSync(const RoundSync&) = delete;
  RoundSync& operator=(const RoundSync&) = delete;

  // Once per Run window: caches the profiling/tracing flags, begins the
  // profiler and trace runs under `kernel_name`, clears any stale stop
  // request (Kernel::BeginWindow), and resets the round/termination state.
  // Session state — LP clocks, FELs, mailboxes — is deliberately untouched:
  // a window continues the session, it does not restart it.
  void BeginRun(const char* kernel_name, uint32_t executors, Time stop);

  // Copies the fused reduction the barrier published on its last release —
  // min next-event timestamp, summed event count, OR'd stop flags — into the
  // coordinator's window state. Call from the reduction's completion, before
  // ComputeWindow.
  void Absorb(const CombiningBarrier& barrier);

  // Folds the reduced minimum into the Eq. 2 LBTS and runs the
  // stop/termination check. Returns false — and latches done() with a
  // reason() — when the window is over. "Window boundary reached" (events
  // remain past the stop time; the session can continue) is distinguished
  // from genuine termination (every FEL empty, or an early stop request).
  //
  // Under speculation (EnableSpeculation after BeginRun) the round bound may
  // additionally extend up to spec_horizon_ps past the conservative LBTS —
  // capped at the public LP's next event, so a pending global never executes
  // with LP state it could not have seen conservatively. lbts() itself stays
  // the conservative Eq. 2 value. ComputeWindow also runs the miss checks: a
  // worker-flagged causality violation (kSpecMissFlag), a straggler global
  // that landed below the already-covered bound, or a stop request arriving
  // after optimistic rounds ran, each latch spec_miss() and end the attempt
  // without a valid reason() — the kernel then rolls back and re-runs the
  // window conservatively.
  bool ComputeWindow();

  // Whether the public LP's next event, as ComputeWindow saw it, falls in
  // this round's global phase (RunGlobalEvents(lbts(), stop()) would run
  // it). A global scheduled from an LP event during the round is not seen
  // here; the worker that scheduled it reports it (Kernel::TakeGlobalScheduled).
  bool globals_due() const { return globals_due_; }

  // Arms speculation for this attempt; call right after BeginRun, only when
  // the window checkpoint was captured (Kernel::BeginSpeculativeWindow).
  void EnableSpeculation(int64_t horizon_ps) {
    spec_enabled_ = horizon_ps > 0;
    spec_horizon_ps_ = horizon_ps;
  }

  // True once at least one round of this attempt extended past the LBTS:
  // workers gate the per-LP arrival check on it (in conservative rounds the
  // check is vacuous — arrivals always land at or above the round's LBTS).
  // Coordinator-written between barriers, worker-read after them.
  bool spec_active() const { return spec_enabled_ && spec_rounds_ > 0; }

  // Phase-2 guard, coordinator-only, before RunGlobalEvents: false when a
  // straggler global (scheduled mid-round from an LP event) landed below the
  // covered bound — executing it would observe speculative state, and its
  // side effects (topology mutations) are not all in the checkpoint. The
  // caller skips the global phase; the next ComputeWindow latches the miss.
  bool SpecAllowsGlobals() const;

  // Whether this attempt ended in a causality miss; the kernel's retry loop
  // restores the checkpoint and re-runs conservatively when set.
  bool spec_miss() const { return spec_miss_; }
  // Rounds of this attempt whose bound extended past the conservative LBTS.
  uint32_t spec_rounds() const { return spec_rounds_; }

  // Opens round round_index(): begins the profiler and trace rounds, then
  // advances the index. `events_before` is the kernel's live event count.
  void CommitRound(uint64_t events_before);

  // Attaches a re-sorted scheduler claim order to the round just committed.
  void RecordClaimOrder(const std::vector<uint32_t>& order);

  // Trace hook for the reduction barrier: the coordinator's observed
  // arrive-to-release latency plus the barrier's cumulative park counter
  // (converted to a per-round delta here). Attaches to the round most
  // recently committed; gated on tracing().
  void RecordBarrierWait(uint64_t barrier_ns, uint64_t parks_cumulative);
  // Baselines the park-delta accounting; call once after BeginRun with the
  // barrier's current cumulative count.
  void SetParkBaseline(uint64_t parks_cumulative) {
    parks_baseline_ = parks_cumulative;
  }

  bool profiling() const { return profiling_; }
  bool tracing() const { return tracing_; }
  bool done() const { return done_; }
  // Why done() latched; meaningful only once it has.
  RunReason reason() const { return reason_; }
  Time stop() const { return stop_; }
  Time lbts() const { return lbts_; }
  Time window() const { return window_; }
  uint32_t round_index() const { return round_index_; }
  // Event count from the last Absorb(): the cross-worker total as of the
  // reduction barrier — the live events_before input to CommitRound.
  uint64_t reduced_events() const { return reduced_events_; }

 private:
  Kernel* const kernel_;
  Time stop_;
  Time lbts_;
  Time window_;
  // Written by the coordinator between barriers, read by every worker after
  // the next barrier; the barrier's acquire/release ordering publishes it.
  bool done_ = false;
  bool globals_due_ = false;
  RunReason reason_ = RunReason::kExhausted;
  bool profiling_ = false;
  bool tracing_ = false;
  uint32_t round_index_ = 0;
  // Last absorbed reduction (coordinator-only).
  int64_t reduced_min_ps_ = INT64_MAX;
  uint64_t reduced_events_ = 0;
  bool reduced_stop_ = false;
  uint64_t parks_baseline_ = 0;
  // Speculation state (reset by BeginRun, armed by EnableSpeculation).
  // covered_ is the maximum round bound issued this attempt — the watermark
  // the straggler and global-phase guards compare the public FEL against.
  bool spec_enabled_ = false;
  bool spec_miss_ = false;
  bool reduced_spec_miss_ = false;
  int64_t spec_horizon_ps_ = 0;
  uint32_t spec_rounds_ = 0;
  Time covered_;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_
