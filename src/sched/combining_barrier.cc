#include "src/sched/combining_barrier.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace unison {

namespace {

// Polls between yields in the idle-core spin. On idle cores a yield returns
// at once; on a host crowded by other processes it hands the CPU to a
// runnable thread, often the straggler this party waits for, so the spin
// costs little CPU there. Two parties the scheduler put on one CPU progress
// only when the waiter yields, so a crossing then costs one yield interval:
// on a 4-vCPU VM, ~0.6 us per 2-party crossing at 8 polls, ~2.2 us at 64.
constexpr uint32_t kYieldEvery = 8;

// Spin-wait hint: frees pipeline resources for an SMT sibling and avoids the
// memory-order flush when the polled line finally changes. It also stretches
// each poll (tens of ns on recent x86), so kIdleCoreSpin polls outlast a
// futex wake-up. A shorter spin parks on every crossing once one party has
// parked, because the waker then waits for the sleeper to come back.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

CombiningBarrier::CombiningBarrier(uint32_t parties, uint32_t cores)
    : parties_(parties),
      idle_cores_(parties <= cores),
      spin_budget_(idle_cores_ ? kIdleCoreSpin : kInitialSpin) {
  if (parties_ <= 1) {
    return;  // Single party: Arrive never touches the tree.
  }
  // Build the tree bottom-up: leaves first, then each level's parents, so a
  // node's children occupy a contiguous run of the previous level and
  // child -> parent indices are pure arithmetic.
  uint32_t level_size = (parties_ + kFanIn - 1) / kFanIn;
  std::vector<uint32_t> level_sizes{level_size};
  while (level_size > 1) {
    level_size = (level_size + kFanIn - 1) / kFanIn;
    level_sizes.push_back(level_size);
  }
  num_nodes_ = 0;
  for (uint32_t n : level_sizes) {
    num_nodes_ += n;
  }
  nodes_ = std::make_unique<Node[]>(num_nodes_);

  uint32_t level_base = 0;
  uint32_t below = parties_;  // Children feeding the current level.
  for (size_t level = 0; level < level_sizes.size(); ++level) {
    const uint32_t count = level_sizes[level];
    const uint32_t parent_base = level_base + count;
    for (uint32_t i = 0; i < count; ++i) {
      Node& node = nodes_[level_base + i];
      node.arity = std::min(kFanIn, below - i * kFanIn);
      node.remaining.store(node.arity, std::memory_order_relaxed);
      if (level + 1 < level_sizes.size()) {
        node.parent = static_cast<int32_t>(parent_base + i / kFanIn);
        node.parent_slot = i % kFanIn;
      }
    }
    level_base = parent_base;
    below = count;
  }
}

void CombiningBarrier::Arrive(uint32_t party, int64_t min_ps, uint64_t count,
                              uint32_t flags, Completion completion,
                              void* context) {
  if (parties_ <= 1) {
    result_min_ = min_ps;
    result_count_ = count;
    result_flags_ = flags;
    if (completion != nullptr) {
      completion(context);
    }
    generation_.fetch_add(1, std::memory_order_release);
    return;
  }
  // The generation must be read before the arrival is signalled: once the
  // fetch_sub lands, the root may complete and bump generation_ at any time,
  // and a stale read taken after that bump would wait for a generation that
  // already passed.
  const uint32_t gen = generation_.load(std::memory_order_acquire);
  Node* node = &nodes_[party / kFanIn];
  uint32_t slot = party % kFanIn;
  for (;;) {
    Slot& s = node->slots[slot];
    s.min_ps = min_ps;
    s.count = count;
    s.flags = flags;
    // acq_rel: the release half publishes the slot write above; the acquire
    // half (completed by the release sequence on `remaining`) gives the last
    // arriver visibility of every sibling's slot.
    if (node->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      Wait(gen);
      return;
    }
    // Last arriver at this node: combine the children and carry the partial
    // result one level up. Re-arming `remaining` here is safe — no party can
    // revisit this node before the root releases the generation, which
    // happens strictly after this climb.
    int64_t m = INT64_MAX;
    uint64_t c = 0;
    uint32_t f = 0;
    for (uint32_t i = 0; i < node->arity; ++i) {
      m = std::min(m, node->slots[i].min_ps);
      c += node->slots[i].count;
      f |= node->slots[i].flags;
    }
    node->remaining.store(node->arity, std::memory_order_relaxed);
    if (node->parent < 0) {
      // Root completed: publish the reduction, retune the spin budget, run
      // the completion, and release everyone with one broadcast.
      result_min_ = m;
      result_count_ = c;
      result_flags_ = f;
      AdaptSpin();
      if (completion != nullptr) {
        completion(context);
      }
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    min_ps = m;
    count = c;
    flags = f;
    slot = node->parent_slot;
    node = &nodes_[node->parent];
  }
}

void CombiningBarrier::Wait(uint32_t gen) {
  const uint32_t budget = spin_budget_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < budget; ++i) {
    if (generation_.load(std::memory_order_acquire) != gen) {
      return;
    }
    if (idle_cores_) {
      CpuRelax();
      if (i % kYieldEvery == kYieldEvery - 1) {
        std::this_thread::yield();
      }
    }
  }
  if (generation_.load(std::memory_order_acquire) == gen) {
    parks_.fetch_add(1, std::memory_order_relaxed);
    do {
      generation_.wait(gen, std::memory_order_acquire);
    } while (generation_.load(std::memory_order_acquire) == gen);
  }
}

void CombiningBarrier::AdaptSpin() {
  if (idle_cores_) {
    return;  // Fixed budget: a park here means the host is crowded, and
             // shrinking the spin would only add futex round-trips.
  }
  const uint64_t total = parks_.load(std::memory_order_relaxed);
  const uint64_t delta = total - last_parks_;
  last_parks_ = total;
  uint32_t budget = spin_budget_.load(std::memory_order_relaxed);
  if (delta * 2 >= parties_) {
    // Most waiters parked anyway (oversubscribed host or heavy phase skew):
    // the spin is wasted burn before an inevitable futex wait.
    budget = std::max(kMinSpin, budget / 2);
  } else if (delta == 0 && budget < kMaxSpin) {
    // Everyone made it by spinning: a longer spin absorbs slightly larger
    // skew before anyone pays a syscall.
    budget = std::min(kMaxSpin, budget * 2);
  }
  spin_budget_.store(budget, std::memory_order_relaxed);
}

}  // namespace unison
