#include "src/kernel/engine/round_kernel.h"

#include <algorithm>

namespace unison {

void RoundKernel::SetupRounds(const char* name, uint32_t domains, uint32_t lanes) {
  name_ = name;
  domains_ = std::max(1u, domains);
  lanes_ = std::max(1u, lanes);
  executor_events_.assign(executors(), 0);
  active_pool_ = external_pool_ != nullptr ? external_pool_ : &pool_;
  barrier_ = std::make_unique<CombiningBarrier>(executors(),
                                                active_pool_->usable_cores());
  active_pool_->Ensure(executors());
}

RunResult RoundKernel::Run(Time stop_time) {
  // Re-Ensure every window (no-op when unchanged): a pool shared with a
  // fork may have been resized by the other kernel's Setup or Run.
  active_pool_->Ensure(executors());
  ApplyPendingMigrations();

  const uint64_t run_t0 = Profiler::NowNs();
  // Speculation (DESIGN.md §3k): capture the window checkpoint while the
  // session is quiescent; rounds may then extend past the LBTS bound. A
  // causality miss aborts the attempt without touching the session
  // accumulators (FinishRun is skipped), rolls back to the checkpoint, and
  // the loop re-runs the window conservatively — at most one retry, and the
  // conservative attempt cannot miss.
  bool speculate = BeginSpeculativeWindow();
  for (;;) {
    sync_.BeginRun(name_, executors(), stop_time);
    if (speculate) {
      sync_.EnableSpeculation(spec_horizon_ps_);
    }
    sync_.SetParkBaseline(barrier_->parks());
    executor_events_.assign(executors(), 0);

    active_pool_->Run([this](uint32_t executor) { RoundLoop(executor); });

    if (!speculate) {
      break;
    }
    NoteSpecAttempt(sync_.spec_rounds(), sync_.spec_miss());
    if (!sync_.spec_miss()) {
      break;
    }
    speculate = false;
  }

  processed_events_ = RoundKernel::LiveEvents();
  rounds_ = sync_.round_index();
  return FinishRun(name_, executors(), Profiler::NowNs() - run_t0, stop_time,
                   sync_.reason());
}

RoundKernel::FoldResult RoundKernel::Fold(const std::vector<uint32_t>& lps) const {
  FoldResult fold;
  fold.flags = stop_requested() ? CombiningBarrier::kStopFlag : 0;
  const bool check_spec = sync_.spec_active();
  for (uint32_t id : lps) {
    FoldLp(*lps_[id], check_spec, &fold);
  }
  return fold;
}

RoundKernel::FoldResult RoundKernel::DrainAndFold(const std::vector<uint32_t>& lps) {
  FoldResult fold;
  fold.flags = stop_requested() ? CombiningBarrier::kStopFlag : 0;
  const bool check_spec = sync_.spec_active();
  for (uint32_t id : lps) {
    Lp& lp = *lps_[id];
    lp.DrainInboxes();
    FoldLp(lp, check_spec, &fold);
  }
  return fold;
}

void RoundKernel::FoldLp(const Lp& lp, bool check_spec, FoldResult* fold) {
  const Time next = lp.fel().NextTimestamp();
  fold->min_ps = std::min(fold->min_ps, next.ps());
  if (check_spec && !next.IsMax() && next <= lp.now() && lp.now() > Time::Zero()) {
    fold->flags |= CombiningBarrier::kSpecMissFlag;
  }
}

void RoundKernel::Reduce(uint32_t executor, FoldResult fold, uint64_t events) {
  if (executor == 0 && sync_.tracing()) {
    reduce_t0_ = Profiler::NowNs();
  }
  barrier_->Arrive(executor, fold.min_ps, events, fold.flags, &RoundKernel::EndRound,
                   this);
}

void RoundKernel::EndRound(void* kernel) {
  RoundKernel& self = *static_cast<RoundKernel*>(kernel);
  RoundSync& sync = self.sync_;
  sync.Absorb(*self.barrier_);
  if (sync.tracing()) {
    // Executor 0's wait from its arrival until the last party arrived,
    // attributed to the round this reduction closes (a no-op before round 0
    // exists). The completion's own work is not part of it.
    sync.RecordBarrierWait(Profiler::NowNs() - self.reduce_t0_,
                           self.barrier_->parks());
  }
  if (sync.ComputeWindow()) {
    self.OpenRound();
  }
}

}  // namespace unison
