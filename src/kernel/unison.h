// The Unison kernel (§4, §5): fine-grained partition consumed through
// load-adaptive scheduling, executed by a persistent executor pool in
// lock-free rounds — and, with KernelType::kHybrid, the §5.2 hybrid kernel,
// which is the same kernel with more than one rank.
//
// LPs are split into claim domains: one for kUnison (every LP), or one per
// simulated host ("rank") for kHybrid, initially sliced by node range the way
// the barrier algorithm would map MPI ranks. A domain's lanes (workers) only
// ever claim that domain's LPs, so load balancing never crosses a rank
// boundary within a window and skew between hosts shows up as
// synchronization time — what the paper's distributed experiments measure.
// Across ranks, the window update is the all-reduce; inter-rank events travel
// through the same mailbox fabric (in-process here; the wire serialization of
// a real deployment does not change the synchronization structure). Between
// windows ownership is live (partition map): migrations can re-home LPs
// across worker slots or ranks.
//
// Each round has four phases separated by barriers (Fig. 7):
//   1. Process events  — each worker first runs its own owned list (the LPs
//                        it drains and folds), in load-adaptive (LPT) order,
//                        through its own padded cursor; then it steals from
//                        the other lanes of its domain, never across ranks.
//                        An LP stays on its owner's core unless that owner
//                        falls behind. An LP with no event below the window
//                        costs one timestamp compare: no clock reads, no
//                        cost accounting.
//   2. Global events   — worker 0 alone runs public-LP events that fall on
//                        the window edge; topology changes recompute the
//                        lookahead here.
//   3. Receive events  — each worker drains the mailboxes of the LPs it
//                        owns into their FELs.
//   4. Update window   — each worker folds the same owned list into a local
//                        min and contributes it (with its event count and
//                        stop vote) to the end-of-round barrier's fused
//                        reduction; worker 0 absorbs the tree's result and
//                        derives the next LBTS from Eq. 2 (RoundSync).
//
// Which worker runs an LP never changes a result: event keys order the
// events. The only shared-state mutations on the fast path besides the
// barrier tree are the claim cursors, and a worker touches another lane's
// cursor only to steal. The window driver, the fold, and the worker threads
// come from the shared engine (src/kernel/engine/).
#ifndef UNISON_SRC_KERNEL_UNISON_H_
#define UNISON_SRC_KERNEL_UNISON_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/kernel/engine/round_kernel.h"

namespace unison {

class UnisonKernel : public RoundKernel {
 public:
  using RoundKernel::RoundKernel;

  void Setup(const TopoGraph& graph, const Partition& partition) override;

 protected:
  // Re-splits the per-worker owned lists from the partition map (Setup,
  // migration, restore, lane resize).
  void OnOwnershipChanged() override;

 private:
  // Worker 0's start-of-round bookkeeping: window computation, termination
  // check, periodic re-sort of every owned list.
  void Prologue();
  void RoundLoop(uint32_t worker) override;

  struct alignas(64) ClaimCursor {
    std::atomic<uint32_t> next{0};
  };

  // Per-worker LP lists, executor-indexed (domain-major): worker w's home
  // LPs, which it alone drains and folds, and which phase 1 runs first. The
  // prologue re-sorts each list by (cost desc, id asc) every sched_period
  // rounds. Unison folds owner slots modulo the live lanes; hybrid stripes
  // each rank's LPs across that rank's lanes.
  std::vector<std::vector<uint32_t>> owned_lists_;
  // claim_[w] walks owned_lists_[w]: its owner and the lanes that steal from
  // it fetch_add it; the owner resets it after phase 1.
  std::unique_ptr<ClaimCursor[]> claim_;
  std::vector<uint64_t> last_round_ns_;  // Per-LP ByLastRoundTime estimates.
  std::vector<uint64_t> cost_buf_;
  std::vector<uint32_t> claim_order_;  // Trace-only: the concatenated lists.
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_UNISON_H_
