// Epoch-versioned live tunables: the mutable half of the two-tier config
// split.
//
// KernelConfig keeps only simulation identity — kernel kind, seed, partition,
// determinism — which must be frozen at MakeKernel because changing any of
// them mid-session would change *what* is simulated. What merely changes
// *how fast* it is simulated and the controller revises (active party count,
// speculation horizon, LP ownership moves) lives here, in a TunableStore
// seeded from the KernelConfig at Finalize and re-published by the
// Controller (src/control/controller.h) between windows.
//
// Concurrency contract: the store is single-writer, window-boundary-only.
// Kernels sample it once per Run() window (Kernel::SampleTuning), before any
// worker is released; the controller publishes only after the pool has
// quiesced. Both sides run on the session thread, so plain fields suffice —
// the epoch exists for provenance (traces and snapshots), not for locking.
#ifndef UNISON_SRC_CONTROL_TUNABLES_H_
#define UNISON_SRC_CONTROL_TUNABLES_H_

#include <cstdint>
#include <vector>

#include "src/partition/partition_map.h"

namespace unison {

struct Tunables {
  // Active party knob in the kernel's own units: workers for unison, lanes
  // per rank for hybrid. 0 keeps the config default; kernels whose party
  // count is structural (barrier/nullmsg: one per LP) ignore it. Values are
  // clamped to the config default so per-executor state sized at Finalize
  // (FlowMonitor shards) is never exceeded.
  uint32_t parties = 0;
  // Speculative execution horizon: how far past the Eq. 2 LBTS bound a round
  // may optimistically extend, in picoseconds. 0 disables speculation (the
  // default; Network::Finalize seeds it only under speculation=auto). The
  // controller's spec rule widens/narrows it from the observed miss rate.
  // Results-neutral: a causality miss rolls back to the window checkpoint and
  // re-runs conservatively, so fingerprints and digests never change.
  int64_t spec_horizon_ps = 0;
  // LP-ownership move set published by the controller's rebalance rule.
  // `rebalance_seq` is a monotone generation counter: a kernel applies
  // `moves` (folded modulo its executor domain) exactly once, at the first
  // window boundary where the sampled seq exceeds the last generation it
  // applied — re-sampling the same set across later windows is a no-op.
  // Results-neutral in deterministic mode, like every other knob here.
  uint64_t rebalance_seq = 0;
  std::vector<LpMove> moves;
};

class TunableStore {
 public:
  // Installs the config-derived defaults without consuming an epoch: a store
  // that was only ever seeded is indistinguishable (epoch 0) from "tuning
  // never acted", which is what makes static and tuned runs comparable.
  void Seed(const Tunables& t) { current_ = t; }

  // Publishes a new tunable set; each publish is one epoch. Call only at a
  // window boundary (no kernel Run() in flight).
  void Publish(const Tunables& t) {
    current_ = t;
    ++epoch_;
  }

  // Snapshot restore: reinstalls captured values *and* the captured epoch so
  // a fork resumes with the parent's learned settings, not the config
  // defaults frozen at capture time.
  void Restore(const Tunables& t, uint64_t epoch) {
    current_ = t;
    epoch_ = epoch;
  }

  const Tunables& Get() const { return current_; }
  uint64_t epoch() const { return epoch_; }

 private:
  Tunables current_;
  uint64_t epoch_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_CONTROL_TUNABLES_H_
