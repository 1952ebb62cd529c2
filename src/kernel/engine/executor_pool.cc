#include "src/kernel/engine/executor_pool.h"

#include <utility>

#include "src/core/executor_id.h"

namespace unison {

namespace {
std::atomic<uint64_t> g_total_threads_spawned{0};
}  // namespace

uint64_t ExecutorPool::TotalThreadsSpawned() {
  return g_total_threads_spawned.load(std::memory_order_relaxed);
}

ExecutorPool::~ExecutorPool() { Shutdown(); }

void ExecutorPool::Shutdown() {
  if (!threads_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    BumpEpoch(0);
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
    shutdown_.store(false, std::memory_order_relaxed);
  }
  parties_ = 0;
}

void ExecutorPool::BumpEpoch(uint32_t parties) {
  epoch_.store(PackEpoch(++seq_, parties), std::memory_order_release);
  epoch_.notify_all();
}

uint32_t ExecutorPool::usable_cores() const {
  // Once this pool may have pinned the caller, only the cached set still
  // holds the pre-pin mask.
  return topology_cached_ ? static_cast<uint32_t>(all_cpus_.size())
                          : CountUsableCpus();
}

void ExecutorPool::EnsureTopology() {
  if (topology_cached_) {
    return;
  }
  // Detect once per pool, and strictly before the first pin: Detect() reads
  // the calling thread's allowed-CPU mask, which pinning narrows to one CPU.
  // The cached full set is also what un-pinning restores.
  topology_ = CpuTopology::Detect();
  all_cpus_.clear();
  all_cpus_.reserve(topology_.cpus.size());
  for (const CpuTopology::Cpu& c : topology_.cpus) {
    all_cpus_.push_back(c.id);
  }
  topology_cached_ = true;
}

void ExecutorPool::ApplyPlacement(AffinityPolicy policy) {
  if (policy == placement_) {
    return;
  }
  if (policy == AffinityPolicy::kNone) {
    placement_ = policy;
    if (!caller_pinned_) {
      return;  // Nothing was ever pinned; nothing to undo.
    }
    cpu_order_.clear();
    ++placement_gen_;
    PinCurrentThreadToCpus(all_cpus_);
    return;
  }
  placement_ = policy;
  EnsureTopology();
  cpu_order_ = topology_.PlacementOrder(policy);
  if (cpu_order_.empty()) {
    return;  // Portable fallback: pinning unsupported here.
  }
  ++placement_gen_;
  PinCurrentThreadToCpu(cpu_order_[0]);  // The caller is worker 0.
  caller_pinned_ = true;
}

void ExecutorPool::Ensure(uint32_t parties) {
  if (parties == parties_) {
    return;
  }
  parties_ = parties;
  if (!caller_pinned_ && placement_ != AffinityPolicy::kNone) {
    EnsureTopology();
    cpu_order_ = topology_.PlacementOrder(placement_);
    if (!cpu_order_.empty()) {
      PinCurrentThreadToCpu(cpu_order_[0]);  // The caller is worker 0.
    }
    caller_pinned_ = true;
  }
  const uint32_t want_threads = parties == 0 ? 0 : parties - 1;
  if (want_threads <= threads_.size()) {
    // Shrink (or re-grow within the high-water set): the excess threads stay
    // parked — each run's epoch carries its party count — and nothing is
    // retired or spawned.
    return;
  }
  threads_.reserve(want_threads);
  // New threads must baseline on the run sequence as of spawn time: a thread
  // that read it only after a later Run() bumped it would mistake that run
  // for "already seen" and sleep through it. The pin target travels by
  // value for the same reason: a later ApplyPlacement rewrites cpu_order_.
  const uint32_t seen = seq_;
  const uint64_t pin_gen = placement_gen_;
  for (uint32_t id = static_cast<uint32_t>(threads_.size()) + 1;
       id <= want_threads; ++id) {
    const int64_t pin =
        cpu_order_.empty() ? -1 : cpu_order_[id % cpu_order_.size()];
    threads_.emplace_back([this, id, seen, pin_gen, pin] {
      if (pin >= 0) {
        PinCurrentThreadToCpu(static_cast<uint32_t>(pin));
      }
      Loop(id, seen, pin_gen);
    });
    ++threads_spawned_;
    g_total_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

void ExecutorPool::Run(std::function<void(uint32_t)> body) {
  body_ = std::move(body);
  done_.store(0, std::memory_order_release);
  BumpEpoch(parties_);
  // The caller is worker 0 for the duration of the window body; everything
  // it runs between windows (injection, summaries) is back to kNoExecutor.
  SetCurrentExecutorId(0);
  body_(0);
  SetCurrentExecutorId(kNoExecutor);
  // Wait for the other active workers (parked excess threads don't report).
  const uint32_t expected = parties_ - 1;
  uint32_t done = done_.load(std::memory_order_acquire);
  while (done != expected) {
    done_.wait(done, std::memory_order_acquire);
    done = done_.load(std::memory_order_acquire);
  }
}

void ExecutorPool::Loop(uint32_t id, uint32_t seen, uint64_t pin_gen) {
  for (;;) {
    uint64_t e = epoch_.load(std::memory_order_acquire);
    while (EpochSeq(e) == seen) {
      epoch_.wait(e, std::memory_order_acquire);
      e = epoch_.load(std::memory_order_acquire);
    }
    seen = EpochSeq(e);
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    if (id < EpochParties(e)) {  // Excess (parked) workers sit this run out.
      if (pin_gen != placement_gen_) {
        // Placement changed since this worker last ran: chase it lazily.
        // Safe to read here — ApplyPlacement writes strictly before the
        // epoch bump this iteration just acquired.
        pin_gen = placement_gen_;
        if (!cpu_order_.empty()) {
          PinCurrentThreadToCpu(cpu_order_[id % cpu_order_.size()]);
        } else {
          PinCurrentThreadToCpus(all_cpus_);
        }
      }
      SetCurrentExecutorId(static_cast<int>(id));
      body_(id);
      SetCurrentExecutorId(kNoExecutor);
      done_.fetch_add(1, std::memory_order_acq_rel);
      done_.notify_all();
    }
  }
}

}  // namespace unison
