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
    // Ownership domain = the config thread ceiling (MaxExecutors), not the
    // live worker count: a move set computed in ceiling units stays
    // meaningful — owner slots fold modulo the live lanes in the owned lists.
    pmap_.ResetStrided(num_lps(), std::max(1u, config_.threads));
  }
  ownership_movable_ = true;
  last_round_ns_.assign(num_lps(), 0);
  claim_ = std::make_unique<ClaimCursor[]>(ranks);
  SetupRounds(hybrid ? "hybrid" : "unison", ranks, config_.threads,
              /*lanes_tunable=*/true);
  OnOwnershipChanged();
}

void UnisonKernel::OnOwnershipChanged() {
  // Claim orders restart id-ascending; the next prologue re-sorts them.
  // Claim order only affects wall time, so resetting it costs nothing
  // observable. Owned lists: unison folds owner slots modulo the live
  // lanes; hybrid stripes each rank's LPs across that rank's lanes.
  const bool ranked = config_.type == KernelType::kHybrid;
  order_.clear();
  domain_end_.clear();
  owned_lists_.assign(executors(), {});
  for (uint32_t d = 0; d < domains_; ++d) {
    const size_t begin = order_.size();
    if (ranked) {
      order_.insert(order_.end(), pmap_.owned(d).begin(), pmap_.owned(d).end());
    } else {
      for (uint32_t lp = 0; lp < num_lps(); ++lp) {
        order_.push_back(lp);
      }
    }
    for (size_t i = begin; i < order_.size(); ++i) {
      const uint32_t lane =
          ranked ? (i - begin) % lanes_ : pmap_.owner(order_[i]) % lanes_;
      owned_lists_[d * lanes_ + lane].push_back(order_[i]);
    }
    domain_end_.push_back(static_cast<uint32_t>(order_.size()));
  }
}

void UnisonKernel::Prologue() {
  if (!sync_.ComputeWindow()) {
    return;
  }
  // Load-adaptive scheduling: re-sort each domain's claim order every
  // sched_period rounds. The LpId tie-break makes the order a function of
  // the costs alone, not of the previous (timing-dependent) order.
  const bool resort = config_.metric != SchedulingMetric::kNone &&
                      sync_.round_index() % tuning_.sched_period == 0;
  if (resort) {
    if (config_.metric == SchedulingMetric::kByPendingEventCount) {
      EstimateByPendingEvents(lps_, sync_.window(), &cost_buf_);
    }
    const std::vector<uint64_t>& cost =
        config_.metric == SchedulingMetric::kByPendingEventCount ? cost_buf_
                                                                 : last_round_ns_;
    uint32_t begin = 0;
    for (uint32_t end : domain_end_) {
      std::sort(order_.begin() + begin, order_.begin() + end,
                [&cost](uint32_t a, uint32_t b) {
                  return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
                });
      begin = end;
    }
  }
  // events_before comes from the end-of-round barrier's fused count — the
  // live cross-worker total as of the last reduction (0 for round 0).
  sync_.CommitRound(sync_.reduced_events());
  if (resort) {
    sync_.RecordClaimOrder(order_);
  }
  for (uint32_t d = 0; d < domains_; ++d) {
    claim_[d].next.store(0, std::memory_order_relaxed);
  }
}

void UnisonKernel::RoundLoop(uint32_t worker) {
  const uint32_t domain = worker / lanes_;
  const uint32_t begin = domain == 0 ? 0 : domain_end_[domain - 1];
  const uint32_t* const order = order_.data() + begin;
  const uint32_t claimable = domain_end_[domain] - begin;
  std::atomic<uint32_t>& claim = claim_[domain].next;
  const std::vector<uint32_t>& owned = owned_lists_[worker];
  const bool record =
      profiler_ != nullptr && profiler_->enabled && profiler_->per_lp;
  uint64_t events = 0;
  // Worker-local round index: every worker executes the same loop iterations,
  // so this mirrors sync_.round_index() without reading shared state. It keys
  // the accountant's executor-private per-round rows, which lets every sync
  // wait — including the end-of-round barrier, which overlaps worker 0's next
  // prologue — be attributed to its round without data races.
  uint32_t round = 0;
  PhaseAccountant acct(worker,
                       sync_.profiling() ||
                           config_.metric == SchedulingMetric::kByLastRoundTime,
                       profiler_);

  for (;;) {
    if (worker == 0) {
      Prologue();
    }
    acct.OpenInterval();
    barrier_->Arrive(worker);
    if (sync_.done()) {
      break;  // Termination wait stays unattributed: it has no round row.
    }
    acct.BeginRound(round);
    acct.CloseSync();

    // Phase 1: process events. Claim the domain's LPs in scheduler priority
    // order. The whole phase closes into P, so claim-cursor and bookkeeping
    // overhead is attributed alongside the per-LP work it exists to
    // distribute.
    const Time window = sync_.window();
    for (;;) {
      const uint32_t i = claim.fetch_add(1, std::memory_order_relaxed);
      if (i >= claimable) {
        break;
      }
      const LpId lp_id = order[i];
      // Capped like EstimateByPendingEvents: an uncapped CountBefore is a
      // full recursive heap walk per LP per round, and the heatmap/cost-model
      // consumers only need "how busy", never exact counts past the cap.
      const uint32_t pending =
          record ? static_cast<uint32_t>(
                       lps_[lp_id]->fel().CountBefore(window, kPendingCountCap))
                 : 0;
      const uint64_t lp_t0 = acct.timing() ? Profiler::NowNs() : 0;
      const uint64_t n = lps_[lp_id]->ProcessUntil(window);
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
    acct.CloseProcessing();
    executor_events_[worker] = events;  // Published by the barrier for LiveEvents.
    barrier_->Arrive(worker);
    acct.CloseSync();

    // Phase 2: global events, worker 0 only; everyone else is parked at the
    // next barrier, so direct cross-LP insertion is safe. Under speculation
    // the guard skips the phase when a straggler global landed below the
    // covered bound — the next prologue latches the miss.
    if (worker == 0) {
      if (sync_.SpecAllowsGlobals()) {
        events += RunGlobalEvents(sync_.lbts(), sync_.stop());
      }
      acct.CloseProcessing();
    }
    barrier_->Arrive(worker);
    acct.CloseSync();

    // Phase 3: receive events from mailboxes — intra-rank and inter-rank
    // alike. The owned lists partition all LPs, so every inbox is drained
    // exactly once per round, with no shared cursor.
    for (uint32_t id : owned) {
      lps_[id]->DrainInboxes();
    }
    acct.CloseMessaging();
    // Every drain must land before anyone reads FELs for the window update:
    // a min computed on a half-drained FEL could overshoot the next LBTS.
    barrier_->Arrive(worker);
    acct.CloseSync();

    // Phase 4: update the window — fold the owned list and contribute it to
    // the end-of-round barrier's fused reduction. No shared CAS line: the
    // tree combine IS the all-reduce.
    const FoldResult fold = Fold(owned);
    acct.CloseMessaging();
    Reduce(worker, fold, events);
    acct.CloseSync();
    ++round;
  }

  executor_events_[worker] = events;
  acct.set_events(events);  // Destructor flushes the totals to the profiler.
}

}  // namespace unison
