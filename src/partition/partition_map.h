// Live, epoch-versioned LP-ownership map: which executor owns which LP.
//
// The fine-grained partition (graph.h) decides *what* the LPs are; this map
// decides *who runs them*. Until PR 9 that assignment was frozen into
// per-kernel arrays at Setup (barrier/nullmsg: rank r runs LP r; hybrid:
// rank_of_lp_ sliced by node range), so persistent per-executor imbalance —
// hot racks, skewed traffic injected mid-session, fail-link reroutes in
// forks — was unfixable at runtime. Kernels now resolve lp → executor
// through this map and rebuild their per-executor LP lists only at window
// boundaries, which makes ownership live: the controller's rebalance rule
// returns an LPT move set, Network::Run stages it, and the kernel applies it with
// MigrateLp/ApplyStaged before releasing any worker into the next window.
//
// Why window boundaries make migration safe: an Lp object (FEL slab,
// mailboxes, tie-break counters) is LpId-indexed in the kernel and never
// physically moves — only the executor→LP-set mapping changes, and it only
// changes while the pool is quiescent between windows. Event keys
// (EventKey{ts, sender_ts, sender_node, seq}) are partition- and
// thread-independent, so in deterministic mode *which* executor processes an
// LP is unobservable in the results: fingerprints and digests are
// bit-identical across any migration schedule.
//
// Concurrency contract: mutations (Stage/ApplyStaged/MigrateLp/Reset/
// Restore) happen on the session thread at window boundaries only; workers
// read owners()/owned() freely during a window.
#ifndef UNISON_SRC_PARTITION_PARTITION_MAP_H_
#define UNISON_SRC_PARTITION_PARTITION_MAP_H_

#include <cstdint>
#include <vector>

namespace unison {

// One requested ownership change: LP `lp` moves to executor `to`. Executor
// values are interpreted in the owning kernel's domain units (barrier/null
// message: executor rank; unison: worker slot; hybrid: rank) and folded
// modulo the domain size on apply, so a move set computed for one domain
// width degrades gracefully instead of faulting on another.
struct LpMove {
  uint32_t lp = 0;
  uint32_t to = 0;
};

// Read-only view of a kernel's ownership state handed to the controller at
// each window boundary: the domain width, the live owner array, and the
// per-LP processing cost of the window that just completed. `movable` is
// false for kernels whose domain cannot benefit from moves (sequential).
struct OwnershipView {
  uint32_t num_executors = 0;
  bool movable = false;
  const std::vector<uint32_t>* owner_of_lp = nullptr;
  const std::vector<uint64_t>* lp_cost_ns = nullptr;
};

class PartitionMap {
 public:
  // Installs a fresh assignment without consuming an epoch: a map that was
  // only ever Reset is epoch 0, "never migrated" — the comparable baseline.
  // Owners are folded modulo
  // `num_executors`; staged moves are discarded.
  void Reset(std::vector<uint32_t> owner_of_lp, uint32_t num_executors);

  // Contiguous default: executor s owns the run of LP ids
  // [s * num_lps / num_executors, (s + 1) * num_lps / num_executors). LP ids
  // follow node ids (Algorithm 1 numbers an LP by its lowest node), and the
  // topology builders emit nodes in locality order, so neighbouring LPs land
  // on one executor and most cut-edge mail never leaves its core. With one
  // LP per executor this is the identity; with one executor, everything on 0.
  void ResetBlocked(uint32_t num_lps, uint32_t num_executors);

  // Queues moves for the next ApplyStaged. Later moves for the same LP win.
  // Callable any time (the stage set is session-thread-private); nothing
  // changes until ApplyStaged runs at a window boundary.
  void Stage(const std::vector<LpMove>& moves);
  bool has_staged() const { return !staged_.empty(); }
  const std::vector<LpMove>& staged() const { return staged_; }

  // Applies the staged set: relocates each LP whose folded target differs
  // from its current owner, rebuilds the per-executor owned lists, and bumps
  // the epoch once if anything moved. Returns the number of LPs that
  // actually changed owner. Window boundaries only.
  uint32_t ApplyStaged();

  // Immediate single-LP migration (window boundaries only): the staged path
  // in one call. Returns true when the owner actually changed.
  bool MigrateLp(uint32_t lp, uint32_t to);

  // Snapshot restore: reinstalls a captured owner array *and* its epoch so a
  // fork resumes with the parent's learned placement, not the setup default.
  void Restore(std::vector<uint32_t> owner_of_lp, uint64_t epoch);

  uint32_t owner(uint32_t lp) const { return owner_of_lp_[lp]; }
  const std::vector<uint32_t>& owners() const { return owner_of_lp_; }
  // Per-executor owned LP lists, each ascending by LpId (deterministic
  // iteration order for the kernels' process/drain/min loops).
  const std::vector<std::vector<uint32_t>>& owned() const { return owned_; }
  const std::vector<uint32_t>& owned(uint32_t executor) const {
    return owned_[executor];
  }
  uint32_t num_lps() const { return static_cast<uint32_t>(owner_of_lp_.size()); }
  uint32_t num_executors() const { return num_executors_; }
  // 0 = the setup-time assignment; each applied migration batch is one epoch.
  uint64_t epoch() const { return epoch_; }

 private:
  void RebuildOwned();

  std::vector<uint32_t> owner_of_lp_;
  std::vector<std::vector<uint32_t>> owned_;
  std::vector<LpMove> staged_;
  uint32_t num_executors_ = 1;
  uint64_t epoch_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_PARTITION_PARTITION_MAP_H_
