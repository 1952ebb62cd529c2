#include "src/kernel/unison.h"

#include <algorithm>

#include "src/kernel/engine/phase_accountant.h"
#include "src/sched/metrics.h"

namespace unison {

void UnisonKernel::Setup(const TopoGraph& graph, const Partition& partition) {
  Kernel::Setup(graph, partition);
  const bool hybrid = config_.type == KernelType::kHybrid;
  const uint32_t ranks = hybrid ? std::max(1u, config_.ranks) : 1;
  if (hybrid) {
    // Coarse host mapping: slice the node-id range into `ranks` blocks (the
    // static partition the barrier algorithm would use), then place each LP
    // on the rank owning its first node. Fine-grained LPs never straddle
    // hosts — initially; window-boundary migrations can re-home them.
    std::vector<uint32_t> assignment(num_lps(), 0);
    std::vector<NodeId> first_node(num_lps(), graph.num_nodes);
    for (NodeId n = 0; n < graph.num_nodes; ++n) {
      const LpId lp = partition_.lp_of_node[n];
      first_node[lp] = std::min(first_node[lp], n);
    }
    for (LpId lp = 0; lp < num_lps(); ++lp) {
      assignment[lp] = static_cast<uint32_t>(static_cast<uint64_t>(first_node[lp]) *
                                             ranks / std::max(1u, graph.num_nodes));
    }
    pmap_.Reset(std::move(assignment), ranks);
  } else {
    pmap_.ResetBlocked(num_lps(), std::max(1u, config_.threads));
  }
  ownership_movable_ = true;
  last_round_ns_.assign(num_lps(), 0);
  SetupRounds(hybrid ? "hybrid" : "unison", ranks, config_.threads);
  // Every cursor is 0 between rounds: each owner resets its own after phase
  // 1, so a new window finds them ready.
  claim_ = std::make_unique<ClaimCursor[]>(MaxExecutors());
  OnOwnershipChanged();
}

void UnisonKernel::OnOwnershipChanged() {
  // Lists restart id-ascending; the next re-sort reorders them. The order
  // only affects wall time, so resetting it costs nothing observable. Both
  // layouts keep runs of neighbouring LP ids on one lane, so most cut-edge
  // mail is pushed and drained on the same core.
  if (config_.type != KernelType::kHybrid) {
    owned_lists_ = pmap_.owned();  // One owner slot per worker.
    return;
  }
  // Each rank's LPs (ascending) split into lanes_ contiguous runs.
  owned_lists_.assign(executors(), {});
  for (uint32_t d = 0; d < domains_; ++d) {
    const std::vector<uint32_t>& lps = pmap_.owned(d);
    for (size_t i = 0; i < lps.size(); ++i) {
      owned_lists_[d * lanes_ + i * lanes_ / lps.size()].push_back(lps[i]);
    }
  }
}

void UnisonKernel::OpenRound() {
  // Load-adaptive scheduling: re-sort every owned list each sched_period
  // rounds, so each worker runs its own heaviest LPs first and a thief's
  // first steal takes the heaviest left. The LpId tie-break makes the order
  // a function of the costs alone, not of the previous (timing-dependent)
  // order.
  const bool resort = config_.metric != SchedulingMetric::kNone &&
                      sync_.round_index() % sched_period_ == 0;
  if (resort) {
    if (config_.metric == SchedulingMetric::kByPendingEventCount) {
      EstimateByPendingEvents(lps_, sync_.window(), &cost_buf_);
    }
    const std::vector<uint64_t>& cost =
        config_.metric == SchedulingMetric::kByPendingEventCount ? cost_buf_
                                                                 : last_round_ns_;
    for (std::vector<uint32_t>& list : owned_lists_) {
      std::sort(list.begin(), list.end(), [&cost](uint32_t a, uint32_t b) {
        return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
      });
    }
  }
  RoundKernel::OpenRound();
  if (resort && sync_.tracing()) {
    claim_order_.clear();
    for (const std::vector<uint32_t>& list : owned_lists_) {
      claim_order_.insert(claim_order_.end(), list.begin(), list.end());
    }
    sync_.RecordClaimOrder(claim_order_);
  }
}

void UnisonKernel::RoundLoop(uint32_t worker) {
  const uint32_t first = worker / lanes_ * lanes_;  // The domain's lane 0.
  const uint32_t lane = worker - first;
  const std::vector<uint32_t>& owned = owned_lists_[worker];
  const bool record =
      profiler_ != nullptr && profiler_->enabled && profiler_->per_lp;
  uint64_t events = 0;
  PhaseAccountant acct(worker,
                       sync_.profiling() ||
                           config_.metric == SchedulingMetric::kByLastRoundTime,
                       profiler_);
  TakeGlobalScheduled();  // Drops a flag left by another kernel's run.

  // The opening reduction computes the first window; it has no round row.
  Reduce(worker, Fold(owned), events);
  acct.OpenInterval();
  // Worker-local round index: every worker executes the same loop iterations,
  // so this mirrors sync_.round_index() without reading shared state. It keys
  // the accountant's executor-private per-round rows, which lets every sync
  // wait be attributed to its round without data races.
  for (uint32_t round = 0; !sync_.done(); ++round) {
    acct.BeginRound(round);

    // Phase 1: process events. Own list first, then steal from the domain's
    // other lanes in ring order. The whole phase closes into P, so cursor
    // and bookkeeping overhead is attributed alongside the per-LP work it
    // exists to distribute.
    const Time window = sync_.window();
    for (uint32_t k = 0; k < lanes_; ++k) {
      const uint32_t victim = first + (lane + k) % lanes_;
      const std::vector<uint32_t>& list = owned_lists_[victim];
      const uint32_t size = static_cast<uint32_t>(list.size());
      std::atomic<uint32_t>& claim = claim_[victim].next;
      // The plain load keeps thieves off the RMW of a drained lane's line.
      while (claim.load(std::memory_order_relaxed) < size) {
        const uint32_t i = claim.fetch_add(1, std::memory_order_relaxed);
        if (i >= size) {
          break;
        }
        const LpId lp_id = list[i];
        Lp* const lp = lps_[lp_id].get();
        if (!record && lp->fel().NextTimestamp() >= window) {
          // Idle this round. Its last-round time is now zero; the store is
          // skipped when it already is, so idle LPs dirty no line.
          if (acct.timing() && last_round_ns_[lp_id] != 0) {
            last_round_ns_[lp_id] = 0;
          }
          continue;
        }
        // Capped like EstimateByPendingEvents: an uncapped CountBefore is a
        // full recursive heap walk per LP per round, and the heatmap/cost-model
        // consumers only need "how busy", never exact counts past the cap.
        const uint32_t pending =
            record ? static_cast<uint32_t>(
                         lp->fel().CountBefore(window, kPendingCountCap))
                   : 0;
        const uint64_t lp_t0 = acct.timing() ? Profiler::NowNs() : 0;
        const uint64_t n = lp->ProcessUntil(window);
        events += n;
        if (acct.timing()) {
          const uint64_t lp_ns = Profiler::NowNs() - lp_t0;
          last_round_ns_[lp_id] = lp_ns;
          AddLpWindowCost(lp_id, lp_ns);
          if (record) {
            profiler_->AddLpRound(worker,
                                  LpRoundCost{round, lp_id,
                                              static_cast<uint32_t>(n), pending, lp_ns});
          }
        }
      }
    }
    acct.CloseProcessing();
    executor_events_[worker] = events;  // Published by the barrier for LiveEvents.
    // Phase 2 runs only when a global is due: worker 0's window saw one, or
    // an event on this worker scheduled one. Every worker reads the same
    // reduced flags, so all of them take the same crossings.
    uint32_t flags = TakeGlobalScheduled() ? CombiningBarrier::kGlobalFlag : 0;
    if (worker == 0 && sync_.globals_due()) {
      flags |= CombiningBarrier::kGlobalFlag;
    }
    barrier_->Arrive(worker, INT64_MAX, 0, flags);
    acct.CloseSync();
    // Every claim of this round is done: re-arm the own cursor for the next.
    claim_[worker].next.store(0, std::memory_order_relaxed);

    // Phase 2: global events, worker 0 only; everyone else waits at the
    // barrier, so direct cross-LP insertion is safe. Under speculation the
    // guard skips the phase when a straggler global landed below the covered
    // bound — the next window computation latches the miss.
    if ((barrier_->reduced_flags() & CombiningBarrier::kGlobalFlag) != 0) {
      if (worker == 0) {
        if (sync_.SpecAllowsGlobals()) {
          events += RunGlobalEvents(sync_.lbts(), sync_.stop());
        }
        acct.CloseProcessing();
      }
      barrier_->Arrive(worker);
      acct.CloseSync();
    }

    // Phases 3 and 4: receive and fold. The owned lists partition all LPs,
    // so every inbox is drained exactly once per round, with no shared
    // cursor, and each LP is folded by the worker that drained it. The
    // reduction's completion computes the next window; no shared CAS line:
    // the tree combine IS the all-reduce.
    const FoldResult fold = DrainAndFold(owned);
    acct.CloseMessaging();
    Reduce(worker, fold, events);
    acct.CloseSync();
  }

  executor_events_[worker] = events;
  acct.set_events(events);  // Destructor flushes the totals to the profiler.
}

}  // namespace unison
