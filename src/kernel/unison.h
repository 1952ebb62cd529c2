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
// Ownership is contiguous. The partition numbers LPs by their lowest node
// and the topology builders emit nodes in locality order, so each worker
// owns one run of neighbouring LP ids: unison gives each worker one owner
// slot of contiguous LPs, and hybrid splits each rank's LPs into one run per
// lane. A 16x16 torus at 2 lanes then has 32 of its 512 cut
// links between different workers, not the 256 a stride would give; the
// mail on the rest is pushed and drained on one core.
//
// Each round has four phases (Fig. 7) and crosses the barrier twice, or
// three times when a global event is due:
//   1. Process events  — each worker first runs its own owned list (the LPs
//                        it drains and folds), in load-adaptive (LPT) order,
//                        through its own padded cursor; then it steals from
//                        the other lanes of its domain, never across ranks.
//                        An LP stays on its owner's core unless that owner
//                        falls behind. An LP with no event below the window
//                        costs one timestamp compare: no clock reads, no
//                        cost accounting.
//      Crossing 1 ends processing. Its arrival ORs in kGlobalFlag when
//      worker 0's window saw a global due this round, or when an event on
//      that worker scheduled one (Kernel::TakeGlobalScheduled).
//   2. Global events   — only when the reduced flags carry kGlobalFlag:
//                        worker 0 alone runs public-LP events that fall on
//                        the window edge (topology changes recompute the
//                        lookahead here), then everyone crosses once more.
//                        Every worker reads the same flags, so all take the
//                        same crossings; a needless crossing costs time, a
//                        missed one would race the global with the drains.
//   3+4. Receive and update window — in one pass over its owned list, each
//                        worker drains an LP's mailboxes into its FEL and
//                        folds it into a local min. No barrier separates the
//                        two: the owned lists partition the LPs and nobody
//                        else writes an owned LP's FEL after crossing 1.
//      Crossing 2 is the end-of-round barrier with its fused reduction (min,
//      event count, stop vote). Its completion, run once by the executor
//      that completes the tree while the others wait, derives the next LBTS
//      from Eq. 2 (RoundSync), runs the termination check, re-sorts the
//      owned lists every sched_period rounds and opens the next round — so
//      the release publishes the next window and no barrier of its own is
//      needed. A window's first round costs one extra crossing per Run().
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

  // Worker w's owned list (see owned_lists_), for tests and introspection.
  // Valid between windows.
  const std::vector<std::vector<uint32_t>>& owned_lists() const {
    return owned_lists_;
  }

 protected:
  // Re-splits the per-worker owned lists from the partition map (Setup,
  // migration, restore, lane resize).
  void OnOwnershipChanged() override;

 private:
  // Start-of-round bookkeeping inside the reduction's completion: periodic
  // re-sort of every owned list, then the round's profiler and trace rows.
  void OpenRound() override;
  void RoundLoop(uint32_t worker) override;

  struct alignas(64) ClaimCursor {
    std::atomic<uint32_t> next{0};
  };

  // Per-worker LP lists, executor-indexed (domain-major): worker w's home
  // LPs, which it alone drains and folds, and which phase 1 runs first. The
  // round opening re-sorts each list by (cost desc, id asc) every
  // sched_period rounds. Unison's are the partition map's owned lists;
  // hybrid splits each rank's LPs into one run per lane.
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
