#include "src/control/controller.h"

#include <algorithm>
#include <cstdint>

#include "src/sched/lpt.h"

namespace unison {

namespace {
// Imbalance of one round's per-executor processing times: the busiest
// executor's share over the ideal 1/W share, minus one (0 = perfectly
// balanced). Undefined (false) for rounds without usable rows.
bool RoundImbalance(const std::vector<std::vector<uint64_t>>& round_p,
                    uint32_t round, double* out) {
  if (round >= round_p.size()) {
    return false;
  }
  const std::vector<uint64_t>& row = round_p[round];
  if (row.size() < 2) {
    return false;
  }
  uint64_t sum = 0;
  uint64_t max = 0;
  for (uint64_t v : row) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum == 0) {
    return false;
  }
  *out = static_cast<double>(max) * static_cast<double>(row.size()) /
             static_cast<double>(sum) -
         1.0;
  return true;
}

}  // namespace

double Controller::MeanRoundImbalance(const WindowTraceSegment& segment) {
  double total = 0.0;
  uint32_t usable = 0;
  for (const RoundTraceRecord& rec : segment.records) {
    double imb = 0.0;
    if (RoundImbalance(segment.round_p, rec.round, &imb)) {
      total += imb;
      ++usable;
    }
  }
  return usable == 0 ? 0.0 : total / usable;
}

std::vector<LpMove> Controller::OnWindowEnd(const WindowTraceSegment& segment,
                                             const OwnershipView& view) {
  if (segment.records.size() < std::max(1u, config_.min_rounds)) {
    // Too little signal — and the sequential/null-message kernels, which
    // have no synchronization rounds at all, land here every window. Thin
    // windows neither extend nor reset the streak.
    return {};
  }

  // Cost smoothing: fold this window's per-LP costs into the EWMA whether
  // or not the rule fires, so the vector it eventually schedules from
  // reflects the whole high-imbalance stretch, not just the window that
  // tipped the streak.
  if (view.lp_cost_ns != nullptr) {
    const std::vector<uint64_t>& raw = *view.lp_cost_ns;
    const double alpha = std::clamp(config_.cost_ewma_alpha, 0.0, 1.0);
    if (ewma_cost_.size() != raw.size()) {
      // First observation (or the LP domain changed): adopt the raw costs.
      ewma_cost_.assign(raw.begin(), raw.end());
    } else {
      for (size_t i = 0; i < raw.size(); ++i) {
        ewma_cost_[i] = alpha * static_cast<double>(raw[i]) +
                        (1.0 - alpha) * ewma_cost_[i];
      }
    }
  }

  bool any_resort = false;
  for (const RoundTraceRecord& rec : segment.records) {
    any_resort = any_resort || rec.resorted;
  }

  // Imbalance that re-sorting keeps failing to fix means the *assignment* is
  // skewed, not the claim order — no ordering of the same per-executor LP
  // sets can shed load across the boundary. After `rebalance_patience`
  // consecutive high-imbalance windows, recompute the placement outright:
  // LPT over the smoothed per-LP window costs, returned as a move set the
  // kernel applies at its next window boundary.
  const bool eligible = view.movable && view.num_executors > 1 &&
                        view.owner_of_lp != nullptr &&
                        view.lp_cost_ns != nullptr && any_resort &&
                        segment.summary.executors > 1 &&
                        !segment.round_p.empty();
  if (rebalance_cooldown_left_ > 0) {
    --rebalance_cooldown_left_;
    rebalance_streak_ = 0;
    return {};
  }
  if (!eligible) {
    return {};
  }
  const double imb = MeanRoundImbalance(segment);
  rebalance_streak_ =
      imb > config_.rebalance_imbalance_high ? rebalance_streak_ + 1 : 0;
  if (rebalance_streak_ < std::max(1u, config_.rebalance_patience)) {
    return {};
  }
  rebalance_streak_ = 0;
  rebalance_cooldown_left_ = config_.rebalance_cooldown;

  // Schedule from the smoothed costs, rounded back to the LPT input units
  // (ns; well below any value where rounding could flip a decision).
  std::vector<uint64_t> cost(ewma_cost_.size());
  uint64_t total_cost = 0;
  for (size_t i = 0; i < ewma_cost_.size(); ++i) {
    cost[i] = static_cast<uint64_t>(ewma_cost_[i] + 0.5);
    total_cost += cost[i];
  }
  const std::vector<uint32_t>& owner = *view.owner_of_lp;
  if (cost.size() != owner.size() || total_cost == 0) {
    return {};
  }
  std::vector<uint32_t> assign;
  const uint64_t makespan = ListScheduleMakespan(
      cost, SortByCostDescending(cost), view.num_executors, &assign);
  std::vector<LpMove> moves;
  for (uint32_t lp = 0; lp < owner.size(); ++lp) {
    if (assign[lp] != owner[lp]) {
      moves.push_back(LpMove{lp, assign[lp]});
    }
  }
  if (!moves.empty()) {
    const double predicted = static_cast<double>(makespan) *
                                 static_cast<double>(view.num_executors) /
                                 static_cast<double>(total_cost) -
                             1.0;
    decisions_.push_back(
        Decision{segment.summary.window_index, imb, predicted});
  }
  return moves;
}

}  // namespace unison
