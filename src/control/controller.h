// Trace-driven closed-loop controller: turns WindowTraceSegments into LP
// ownership moves.
//
// The kernel already measures everything a tuner needs — per-round P/S/M,
// re-sort markers, per-LP window costs. The controller consumes each
// completed window's trace segment (never anything mid-round) and runs one
// rule:
//
//   rule       | signal (from the segment)          | action
//   -----------+------------------------------------+-------------------------
//   rebalance  | mean per-round imbalance stays     | return an LPT move set;
//              | high for K windows despite         | Network::Run stages it
//              | re-sorts                           | and the kernel migrates
//              |                                    | LPs at the next boundary
//
// Everything else is static for the session: the re-sort period is the one
// of §4.3 (KernelConfig, else ceil(log2 n)), Network::Run slices a tuned run
// into fixed windows of `window_ps`, Network::Finalize fits the worker count
// to the usable CPUs once, and the speculation horizon is
// `spec_horizon_initial_ps`. Which executor runs an LP is unobservable in
// the results, so tuned and static runs are bit-identical.
#ifndef UNISON_SRC_CONTROL_CONTROLLER_H_
#define UNISON_SRC_CONTROL_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/partition/partition_map.h"
#include "src/stats/trace.h"

namespace unison {

struct ControllerConfig {
  // Simulated time one tuned Run() window covers. A controller can only act
  // at window boundaries; without a bound, a single long Run() would give it
  // exactly one observation, at the end. Window slicing is results-neutral,
  // so the size only affects wall time.
  int64_t window_ps = 1'000'000'000;  // 1 ms of simulated time.

  // Windows with fewer rounds than this carry too little signal to act on
  // (and sequential/null-message windows have no round records at all).
  uint32_t min_rounds = 8;

  // Rebalance rule: when the mean per-round processing imbalance (busiest
  // executor's share over the ideal 1/W share, minus one) stays above
  // `rebalance_imbalance_high` for `rebalance_patience` consecutive windows
  // *with re-sorts active* — i.e. reordering the claims could not fix it, so
  // the assignment itself is skewed — publish an LPT move set computed from
  // the kernel's per-LP window costs. `rebalance_cooldown` windows must pass
  // after a publish before the streak may begin again, giving the moved
  // placement time to show up in the signal.
  double rebalance_imbalance_high = 0.25;
  uint32_t rebalance_patience = 3;
  uint32_t rebalance_cooldown = 4;

  // Cost smoothing for the rebalance rule: the per-LP window costs feeding
  // LPT are an exponential moving average across windows rather than the
  // last window's raw measurement, so one noisy window cannot trigger a
  // placement computed from an unrepresentative cost vector. `alpha` is the
  // weight of the newest window; 1.0 reproduces the raw (PR 9) behaviour.
  double cost_ewma_alpha = 0.5;

  // Speculative window execution (SimConfig::speculation == kAuto): how far
  // past the Eq. 2 LBTS bound a round may optimistically extend, in
  // picoseconds. It is the session's fixed horizon, read at Finalize whether
  // tuning is on or off. Results-neutral: a causality miss rolls back to the
  // window checkpoint and re-runs conservatively.
  int64_t spec_horizon_initial_ps = 2'000'000;  // 2 us.
};

class Controller {
 public:
  explicit Controller(const ControllerConfig& config) : config_(config) {}

  // Consumes one completed window's segment and returns the move set to
  // stage for the next window (empty when the rule does not fire). Call
  // only between Run() windows. `view` is the kernel's ownership state; the
  // default (empty) view disables the rule, which keeps synthetic
  // single-segment callers meaningful.
  std::vector<LpMove> OnWindowEnd(const WindowTraceSegment& segment,
                                  const OwnershipView& view = {});

  // Audit log: one entry per published move set, with the observed mean
  // round imbalance that triggered it and the imbalance the LPT assignment
  // predicts for the post-move placement (makespan * W / total - 1).
  struct Decision {
    uint32_t window = 0;
    double observed_imbalance = 0.0;
    double predicted_imbalance = 0.0;
  };
  const std::vector<Decision>& decisions() const { return decisions_; }

  const ControllerConfig& config() const { return config_; }

  // The smoothed per-LP cost vector the rebalance rule schedules from
  // (empty until a window with ownership costs has been observed). Exposed
  // for tests asserting the EWMA behaviour.
  const std::vector<double>& smoothed_costs() const { return ewma_cost_; }

  // Mean per-round processing imbalance (max share over the ideal share,
  // minus one) over the window's usable rounds; the rebalance rule's signal.
  static double MeanRoundImbalance(const WindowTraceSegment& segment);

 private:
  ControllerConfig config_;
  std::vector<Decision> decisions_;
  // Consecutive eligible high-imbalance windows, and windows left before
  // the streak may begin again after a publish.
  uint32_t rebalance_streak_ = 0;
  uint32_t rebalance_cooldown_left_ = 0;
  // EWMA state for the rebalance cost vector, indexed by LP.
  std::vector<double> ewma_cost_;
};

}  // namespace unison

#endif  // UNISON_SRC_CONTROL_CONTROLLER_H_
