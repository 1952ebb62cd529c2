// Barrier-synchronization PDES baseline (§2.3): the default parallel kernel
// of ns-3, reproduced over threads instead of MPI ranks — the baseline
// Figs. 5 and 11 compare Unison against.
//
// The topology is statically partitioned by the user; each LP starts on its
// own executor ("rank"), though ownership is live — window-boundary
// migrations may re-home LPs across the rank set. Every round, ranks first
// all-reduce the minimum next-event timestamp to obtain the LBTS (Eq. 1),
// then process events below it, and barrier. Cross-LP events go through a
// locked per-rank inbox, mimicking MPI message receipt — including its
// arrival-order indeterminism when the kernel runs with deterministic=false.
// Only this round body is the kernel's own: the window driver, the fold, and
// the rank threads come from the shared engine (src/kernel/engine/).
#ifndef UNISON_SRC_KERNEL_BARRIER_H_
#define UNISON_SRC_KERNEL_BARRIER_H_

#include "src/kernel/engine/round_kernel.h"

namespace unison {

class BarrierKernel : public RoundKernel {
 public:
  using RoundKernel::RoundKernel;

  // One executor rank per LP. The *initial* assignment pins rank r to LP r,
  // but ownership is live (partition map): the rank count is the ceiling,
  // not the mapping.
  void Setup(const TopoGraph& graph, const Partition& partition) override;

 protected:
  // Cross-LP transfer via the target's locked inbox: arrival order depends
  // on thread timing, exactly like MPI receive order.
  void ScheduleRemote(Lp* from, LpId target, Event ev) override {
    (void)from;
    lps_[target]->overflow().Push(std::move(ev));
  }

 private:
  // One executor rank's window loop over its owned LP set (pmap_.owned).
  void RoundLoop(uint32_t rank) override;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_BARRIER_H_
