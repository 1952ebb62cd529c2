#include "src/kernel/barrier.h"

#include "src/kernel/engine/phase_accountant.h"

namespace unison {

void BarrierKernel::Setup(const TopoGraph& graph, const Partition& partition) {
  Kernel::Setup(graph, partition);
  const uint32_t ranks = num_lps();
  // Rank r starts out owning LP r (the classic 1:1 pinning); the rank count
  // stays structural, but which LPs a rank serves is live — migrations
  // re-home LPs across the same rank set at window boundaries.
  pmap_.ResetBlocked(ranks, ranks);
  ownership_movable_ = true;
  SetupRounds("barrier", /*domains=*/1, ranks);
}

void BarrierKernel::RoundLoop(uint32_t rank) {
  // The LP set this rank serves for the whole window; ownership only changes
  // between windows (ApplyPendingMigrations), so the reference stays valid
  // and no worker ever observes a mid-window move.
  const std::vector<uint32_t>& owned = pmap_.owned(rank);
  uint64_t events = 0;
  PhaseAccountant acct(rank, sync_.profiling(), profiler_);

  // All-reduce (MPI_Allreduce analogue): each rank contributes its next
  // event timestamp, event count, and stop vote to the barrier's fused
  // reduction — one tree pass instead of a CAS fold plus a separate barrier
  // word — and the reduction's completion publishes the next window. A rank
  // that owns no LPs (everything migrated away) contributes Max and keeps
  // arriving: the barrier is population-fixed. The opening reduction has no
  // round row.
  Reduce(rank, Fold(owned), events);
  acct.OpenInterval();
  // Rank-local mirror of sync_.round_index(); keys the accountant's
  // executor-private per-round rows (see unison.cc for why that is safe).
  for (uint32_t round = 0; !sync_.done(); ++round) {
    acct.BeginRound(round);

    // Process the owned LPs' events inside the window, in ascending LpId
    // order (the owned list's construction order — deterministic across any
    // migration history).
    for (uint32_t id : owned) {
      Lp* const lp = lps_[id].get();
      const uint64_t lp_t0 = acct.timing() ? Profiler::NowNs() : 0;
      const uint64_t n = lp->ProcessUntil(sync_.window());
      events += n;
      if (acct.timing()) {
        const uint64_t p_ns = Profiler::NowNs() - lp_t0;
        AddLpWindowCost(id, p_ns);
        if (profiler_->per_lp) {
          profiler_->AddLpRound(rank, LpRoundCost{round, lp->id(),
                                                  static_cast<uint32_t>(n),
                                                  static_cast<uint32_t>(n),
                                                  p_ns});
        }
      }
    }
    acct.CloseProcessing();
    executor_events_[rank] = events;  // Published by the barrier for LiveEvents.

    // Rank 0 additionally handles global events at the window edge so that
    // simulation stop and progress reports work; stock ns-3 duplicates these
    // per rank, with the same observable effect. The surrounding barriers
    // keep the other ranks' FELs quiescent while rank 0 inserts into them.
    // Unlike the unison round, this baseline crosses them every round.
    barrier_->Arrive(rank);
    acct.CloseSync();
    if (rank == 0) {
      // The speculation guard skips stragglers that landed below the covered
      // bound; the next ComputeWindow latches the miss (see round_sync.h).
      if (sync_.SpecAllowsGlobals()) {
        events += RunGlobalEvents(sync_.lbts(), sync_.stop());
      }
      executor_events_[rank] = events;
      acct.CloseProcessing();
    }
    barrier_->Arrive(rank);
    acct.CloseSync();

    // Receive cross-LP events (M) for every owned LP.
    for (uint32_t id : owned) {
      lps_[id]->DrainInboxes();
    }
    acct.CloseMessaging();
    barrier_->Arrive(rank);
    acct.CloseSync();

    const FoldResult fold = Fold(owned);
    acct.CloseMessaging();
    Reduce(rank, fold, events);
    acct.CloseSync();
  }

  executor_events_[rank] = events;
  acct.set_events(events);  // Destructor flushes the totals to the profiler.
}

}  // namespace unison
