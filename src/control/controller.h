// Trace-driven closed-loop controller: turns WindowTraceSegments into
// tunable updates.
//
// The kernel already measures everything a tuner needs — per-round P/S/M,
// barrier latency, futex parks, re-sort markers — but until this module every
// knob was frozen at MakeKernel. The controller closes the loop: it consumes
// each completed window's trace segment (never anything mid-round, so
// simulation results are bit-identical with tuning on or off — scheduling
// order, party count, and window slicing are all results-neutral by the
// session invariants established in PRs 4–6) and publishes at most one
// tunable epoch per window:
//
//   rule              | signal (from the segment)        | action
//   ------------------+----------------------------------+----------------------
//   oversubscribed    | parked/round > threshold         | parties -> fit the
//                     |                                  | machine; at the floor,
//                     |                                  | drop affinity to none
//   re-sort cadence   | per-round P imbalance drift      | halve/double
//                     | across re-sort stretches         | sched_period
//   window horizon    | P/(P+S) ratio of the window      | halve/double the
//                     |                                  | Run() slice bound
//   rebalance         | mean per-round imbalance stays   | publish an LPT
//                     | high for K windows despite       | move set; kernels
//                     | re-sorts                         | migrate LPs at the
//                     |                                  | next boundary
//   spec horizon      | speculation miss / clean-commit  | halve/double the
//                     | streaks (RunSummary spec stats)  | speculative horizon
//
// The re-sort and window rules carry hysteresis: each direction must be
// observed for `rule_patience` consecutive eligible windows before its epoch
// publishes, so a single noisy window cannot flip a knob and the rebalance
// rule (which watches the same imbalance signal over a longer horizon) does
// not oscillate against them.
//
// PARSIR's observation (PAPERS.md) is that exploiting the *actual*
// multiprocessor — not the nominal one — is the whole game; the
// oversubscription rule is exactly that, applied unattended.
#ifndef UNISON_SRC_CONTROL_CONTROLLER_H_
#define UNISON_SRC_CONTROL_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/control/tunables.h"
#include "src/stats/trace.h"

namespace unison {

struct ControllerConfig {
  // Re-sort cadence rule: mean per-stretch growth of the processing-time
  // imbalance (max-executor share over the ideal share, minus one). Above
  // `drift_shrink` the claim order goes stale too fast between re-sorts —
  // halve the period; below `drift_grow` re-sorting buys nothing — double it.
  // The defaults were set from an offline replay of a traced fat-tree run's
  // per-LP costs through LPT at growing re-sort staleness: makespan stayed
  // within ~5% of the every-round oracle for small staleness and inflected
  // past ~30%.
  double drift_shrink = 0.30;
  double drift_grow = 0.05;
  uint32_t min_period = 1;
  uint32_t max_period = 4096;

  // Window-horizon rule on the P/(P+S) ratio. Below `ps_low` the windows are
  // sync-bound — halve the Run() slice so the controller gets to react more
  // often and short LBTS windows stop being amortized over a long horizon;
  // above `ps_high` the slicing itself is overhead — double it, reverting to
  // unbounded past the cap.
  double ps_low = 0.35;
  double ps_high = 0.70;
  int64_t min_window_ps = 50'000'000;  // 50 us of simulated time.
  // Horizon cap past which the bound reverts to 0 (unbounded); 0 selects the
  // built-in 1 s (1e12 ps) default.
  int64_t max_window_ps = 0;
  // Seed horizon installed when tuning is enabled (0 = leave unbounded). A
  // controller can only act at window boundaries; without an initial bound,
  // a single long Run() would give it exactly one observation, at the end.
  // Window slicing is results-neutral, so the seed only affects wall time.
  int64_t initial_window_ps = 1'000'000'000;  // 1 ms of simulated time.

  // Oversubscription rule: mean futex parks per round across the window's
  // reduction barriers. Parks mean workers waiting on descheduled peers —
  // the signature of more parties than the machine can run.
  double parks_per_round_high = 4.0;
  uint32_t min_parties = 1;
  // Machine size used to fit the party count; 0 = detect at construction.
  uint32_t cpu_limit = 0;

  // Windows with fewer rounds than this carry too little signal to act on
  // (and sequential/null-message windows have no round records at all).
  uint32_t min_rounds = 8;

  // Hysteresis for the re-sort cadence and window-horizon rules: how many
  // consecutive eligible windows must show the same out-of-band signal
  // before that direction publishes. 1 = act on the first window (the PR 8
  // behaviour). Thin windows (below min_rounds) neither extend nor reset a
  // streak.
  uint32_t rule_patience = 2;

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

  // Rule 5 — speculation horizon (active only when the live spec_horizon_ps
  // tunable is nonzero, i.e. SimConfig::speculation == kAuto). A missed
  // speculative window costs roughly the window twice plus the rollback, so
  // a miss streak halves the horizon toward the floor; a streak of windows
  // that speculated cleanly doubles it toward the cap. Both directions carry
  // the same `rule_patience` hysteresis as rules 2/3. The horizon is
  // results-neutral by the speculation contract (misses roll back), so this
  // rule only ever trades wall time.
  int64_t spec_horizon_initial_ps = 2'000'000;      // Seed: 2 us.
  int64_t spec_horizon_min_ps = 250'000;            // Floor: 0.25 us.
  int64_t spec_horizon_max_ps = 1'000'000'000;      // Cap: 1 ms.
};

class Controller {
 public:
  Controller(const ControllerConfig& config, TunableStore* store);

  // Consumes one completed window's segment; publishes at most one tunable
  // epoch. Returns true when something was published. Call only between
  // Run() windows. `view` is the kernel's ownership state for the rebalance
  // rule; the default (empty) view disables that rule, which keeps synthetic
  // single-segment callers meaningful.
  bool OnWindowEnd(const WindowTraceSegment& segment,
                   const OwnershipView& view = {});

  // Audit log: one entry per published epoch.
  struct Decision {
    uint64_t epoch = 0;
    uint32_t window = 0;
    std::string rule;  // "oversubscribed" | "affinity-fallback" |
                       // "resort-shrink" | "resort-grow" |
                       // "window-shrink" | "window-grow" | "rebalance"
                       // (comma-joined when several rules fire in one
                       // window).
    Tunables tunables;
    // Rebalance decisions only: the observed mean round imbalance that
    // triggered the move set, and the imbalance the LPT assignment predicts
    // for the post-move placement (makespan * W / total - 1).
    double observed_imbalance = 0.0;
    double predicted_imbalance = 0.0;
  };
  const std::vector<Decision>& decisions() const { return decisions_; }

  const ControllerConfig& config() const { return config_; }

  // The smoothed per-LP cost vector the rebalance rule schedules from
  // (empty until a window with ownership costs has been observed). Exposed
  // for tests asserting the EWMA behaviour.
  const std::vector<double>& smoothed_costs() const { return ewma_cost_; }

  // Mean growth of the per-round processing imbalance across the window's
  // re-sort stretches; exposed for tests and the trace tooling.
  static double ResortDrift(const WindowTraceSegment& segment);

  // Mean per-round processing imbalance (max share over the ideal share,
  // minus one) over the window's usable rounds; the rebalance rule's signal.
  static double MeanRoundImbalance(const WindowTraceSegment& segment);

 private:
  ControllerConfig config_;
  TunableStore* const store_;
  std::vector<Decision> decisions_;
  // Hysteresis streaks: consecutive eligible windows showing each signal.
  uint32_t resort_shrink_streak_ = 0;
  uint32_t resort_grow_streak_ = 0;
  uint32_t window_shrink_streak_ = 0;
  uint32_t window_grow_streak_ = 0;
  uint32_t rebalance_streak_ = 0;
  uint32_t rebalance_cooldown_left_ = 0;
  uint32_t spec_narrow_streak_ = 0;
  uint32_t spec_widen_streak_ = 0;
  // EWMA state for the rebalance cost vector, indexed by LP.
  std::vector<double> ewma_cost_;
};

}  // namespace unison

#endif  // UNISON_SRC_CONTROL_CONTROLLER_H_
