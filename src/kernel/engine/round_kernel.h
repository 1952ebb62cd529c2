// The shared base of the round-synchronized parallel kernels (barrier,
// Unison and hybrid).
//
// Every such kernel runs one window the same way: sample the live tunables,
// resize the barrier tree and the pool, apply window-boundary ownership
// moves, capture the speculation checkpoint, release the executor pool into
// the kernel's round body, retry the window conservatively on a causality
// miss, then sum the per-executor event counters and close the window
// (FinishRun). RoundKernel::Run is that driver, written once; a derived
// kernel supplies only its Setup (which partition-map domain it installs)
// and RoundLoop, the per-executor round body the pool runs — one virtual
// call per executor per Run(), none inside the round loop.
//
// The window-update fold is shared too: Fold() reduces an LP list to its
// minimum next-event timestamp plus the stop vote and the speculation-miss
// check, and Reduce() contributes that to the CombiningBarrier's fused
// all-reduce. The barrier's completion step closes the round: it absorbs the
// reduction into RoundSync, computes the next window, and opens the next
// round (OpenRound), all before any executor is released — so the window a
// worker reads on release is already published, with no barrier of its own.
// A window attempt starts with one such reduction over the FELs as they
// stand; every later round opens inside the previous round's reduction.
#ifndef UNISON_SRC_KERNEL_ENGINE_ROUND_KERNEL_H_
#define UNISON_SRC_KERNEL_ENGINE_ROUND_KERNEL_H_

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/engine/round_sync.h"
#include "src/kernel/kernel.h"
#include "src/sched/combining_barrier.h"

namespace unison {

class RoundKernel : public Kernel {
 public:
  using Kernel::Kernel;

  RunResult Run(Time stop_time) final;

  // The ceiling, not the live count: tuning may shrink lanes between
  // windows, but per-executor state sized at Finalize must cover every
  // window. Valid after Setup.
  uint32_t MaxExecutors() const override { return domains_ * max_lanes_; }

  ExecutorPool* executor_pool() override { return active_pool_; }

  uint64_t LiveEvents() const override {
    return std::accumulate(executor_events_.begin(), executor_events_.end(),
                           uint64_t{0});
  }

 protected:
  // Setup tail shared by every round kernel, called once the kernel has
  // installed its partition-map domain. The executors are `domains` groups
  // of `max_lanes` lanes each, ids domain-major (executor = domain * lanes +
  // lane); only the lane count is a live tunable, and only when
  // `lanes_tunable`. `name` stamps the RunSummary and trace.
  void SetupRounds(const char* name, uint32_t domains, uint32_t max_lanes,
                   bool lanes_tunable);

  // One executor's round loop for a whole window attempt.
  virtual void RoundLoop(uint32_t executor) = 0;

  // The window-update fold over `lps`: minimum next-event timestamp (ps), and
  // a CombiningBarrier flags word carrying the stop vote and — once
  // speculative rounds ran — the causality-miss check (an inbound arrival at
  // or below an LP's already-advanced clock).
  struct FoldResult {
    int64_t min_ps = INT64_MAX;
    uint32_t flags = 0;
  };
  FoldResult Fold(const std::vector<uint32_t>& lps) const;
  // Fold() fused with the receive phase: drains each LP's inboxes into its
  // FEL, then folds it, in one pass. Safe without a barrier between the two
  // only because the caller alone drains and folds `lps` this round: no
  // other executor writes those FELs once processing has ended.
  FoldResult DrainAndFold(const std::vector<uint32_t>& lps);

  // Contributes `fold` and the executor's running event count to the
  // all-reduce that closes a round. The barrier's completion runs EndRound
  // on whichever executor completes it; on return the next round is open, or
  // sync_.done() is set.
  void Reduce(uint32_t executor, FoldResult fold, uint64_t events);

  // Part of the reduction's completion, once ComputeWindow has opened a new
  // round: opens the round's profiler and trace rows. Every executor is
  // waiting at the barrier, so an override may touch any executor's state.
  virtual void OpenRound() { sync_.CommitRound(sync_.reduced_events()); }

  uint32_t executors() const { return domains_ * lanes_; }

  uint32_t domains_ = 1;
  uint32_t lanes_ = 1;  // Live lanes per domain.
  RoundSync sync_{this};
  std::unique_ptr<CombiningBarrier> barrier_;
  // Per-executor event counters, published at each round barrier so
  // LiveEvents() is live mid-run (global progress events see current
  // counts).
  std::vector<uint64_t> executor_events_;

 private:
  // Folds one LP's next-event timestamp and miss check into `fold`.
  static void FoldLp(const Lp& lp, bool check_spec, FoldResult* fold);

  // The reduction's completion: absorb, trace the coordinator's wait,
  // compute the next window and open its round.
  static void EndRound(void* kernel);

  const char* name_ = "";
  // Executor 0's arrival time at the current reduction (tracing only).
  uint64_t reduce_t0_ = 0;
  uint32_t max_lanes_ = 1;
  bool lanes_tunable_ = true;
  ExecutorPool pool_;  // Threads spawned once at Setup, reused across runs.
  // The pool Run() actually uses: the borrowed external pool when one was
  // lent (Session::Fork), else pool_. Set at Setup.
  ExecutorPool* active_pool_ = nullptr;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_ROUND_KERNEL_H_
