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
// all-reduce, which the coordinator (executor 0) absorbs into RoundSync.
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

  // Contributes `fold` and the executor's running event count to the
  // end-of-round all-reduce; on release, executor 0 absorbs the reduction
  // into sync_ (and traces the barrier wait).
  void Reduce(uint32_t executor, FoldResult fold, uint64_t events);

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
  const char* name_ = "";
  uint32_t max_lanes_ = 1;
  bool lanes_tunable_ = true;
  ExecutorPool pool_;  // Threads spawned once at Setup, reused across runs.
  // The pool Run() actually uses: the borrowed external pool when one was
  // lent (Session::Fork), else pool_. Set at Setup.
  ExecutorPool* active_pool_ = nullptr;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_ROUND_KERNEL_H_
