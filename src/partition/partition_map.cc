#include "src/partition/partition_map.h"

#include <algorithm>

namespace unison {

void PartitionMap::Reset(std::vector<uint32_t> owner_of_lp,
                         uint32_t num_executors) {
  num_executors_ = std::max(1u, num_executors);
  owner_of_lp_ = std::move(owner_of_lp);
  for (uint32_t& o : owner_of_lp_) {
    o %= num_executors_;
  }
  staged_.clear();
  epoch_ = 0;
  RebuildOwned();
}

void PartitionMap::ResetBlocked(uint32_t num_lps, uint32_t num_executors) {
  const uint32_t slots = std::max(1u, num_executors);
  std::vector<uint32_t> owner(num_lps);
  for (uint32_t s = 0; s < slots; ++s) {
    const uint32_t end = static_cast<uint32_t>(uint64_t{s + 1} * num_lps / slots);
    for (uint32_t lp = static_cast<uint32_t>(uint64_t{s} * num_lps / slots); lp < end;
         ++lp) {
      owner[lp] = s;
    }
  }
  Reset(std::move(owner), slots);
}

void PartitionMap::Stage(const std::vector<LpMove>& moves) {
  staged_.insert(staged_.end(), moves.begin(), moves.end());
}

uint32_t PartitionMap::ApplyStaged() {
  // Later stages for the same LP win, so resolve the final target per LP
  // before touching the owner array: an LP staged A→B→A must count (and
  // cost) zero changes, not two.
  uint32_t changed = 0;
  std::vector<bool> seen(owner_of_lp_.size(), false);
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->lp >= owner_of_lp_.size() || seen[it->lp]) {
      continue;  // Out-of-range: a move set from a different topology.
    }
    seen[it->lp] = true;
    const uint32_t to = it->to % num_executors_;
    if (owner_of_lp_[it->lp] != to) {
      owner_of_lp_[it->lp] = to;
      ++changed;
    }
  }
  staged_.clear();
  if (changed > 0) {
    ++epoch_;
    RebuildOwned();
  }
  return changed;
}

bool PartitionMap::MigrateLp(uint32_t lp, uint32_t to) {
  Stage({LpMove{lp, to}});
  return ApplyStaged() > 0;
}

void PartitionMap::Restore(std::vector<uint32_t> owner_of_lp, uint64_t epoch) {
  owner_of_lp_ = std::move(owner_of_lp);
  for (uint32_t& o : owner_of_lp_) {
    o %= num_executors_;
  }
  staged_.clear();
  epoch_ = epoch;
  RebuildOwned();
}

void PartitionMap::RebuildOwned() {
  owned_.assign(num_executors_, {});
  // Ascending LpId within each executor by construction: the loops that
  // consume these lists (process, drain, min-reduce) iterate in a
  // partition-independent deterministic order.
  for (uint32_t lp = 0; lp < owner_of_lp_.size(); ++lp) {
    owned_[owner_of_lp_[lp]].push_back(lp);
  }
}

}  // namespace unison
