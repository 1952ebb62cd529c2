// A persistent team of workers that execute one body function in lockstep.
//
// The calling thread participates as worker 0, so a pool of N parties uses
// N-1 OS threads. Unlike the per-run WorkerTeam it replaces, the pool is
// created once (at Kernel::Setup) and its threads park in a futex wait
// between Run() invocations, so back-to-back runs on one kernel instance —
// and multi-run benches like bench_fig08b_speedup, which execute dozens of
// short simulations per process — never pay thread spawn/join more than once.
//
// The thread set is a high-water mark: Ensure() grows it by spawning only the
// missing workers and shrinks it in place by parking the excess (they skip
// run epochs until a later Ensure re-enlists them), so alternating kernel
// configurations in one process never churn OS threads.
//
// With a placement policy set (SetPlacement, before the first Ensure), the
// caller and every spawned worker are pinned to cores per the policy's CPU
// order (see cpu_topology.h); worker w gets order[w % order.size()].
//
// Kernels hand the pool their whole round loop once per run; phase
// synchronization inside the loop is the kernel's job (CombiningBarrier).
#ifndef UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_
#define UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/kernel/engine/cpu_topology.h"

namespace unison {

class ExecutorPool {
 public:
  ExecutorPool() = default;
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  // Selects the worker placement policy. Takes effect at the next Ensure()
  // that spawns or (for the caller pin) first activates placement; call it
  // before the first Ensure — kernels do so in Setup.
  void SetPlacement(AffinityPolicy policy) { placement_ = policy; }

  // Live placement change between runs: re-pins the caller now and each
  // worker lazily at its next run epoch (no thread is retired or spawned).
  // Dropping back to kNone widens every thread to the pre-pin CPU set. Call
  // only with no Run() in flight — kernels do so when sampling tunables.
  void ApplyPlacement(AffinityPolicy policy);

  // Ensures the pool runs `parties` workers, the caller counting as worker 0.
  // Growth beyond the high-water mark spawns only the missing threads;
  // shrinking parks the excess in place (no retire/respawn).
  void Ensure(uint32_t parties);

  uint32_t parties() const { return parties_; }

  // CPUs the caller may run on: its allowed-CPU mask, or the mask cached
  // before this pool pinned the caller. The round kernels size their
  // barrier's spin regime with it.
  uint32_t usable_cores() const;

  // Runs body(worker_id) on all workers, the caller included as id 0.
  // Returns when every worker has finished. Not reentrant.
  void Run(std::function<void(uint32_t)> body);

  // Cumulative OS threads spawned by this pool. Test hook: a second Run() on
  // the same pool — or an Ensure() at or below the high-water mark — must not
  // move it.
  uint64_t threads_spawned() const { return threads_spawned_; }

  // Process-wide spawn counter across all pools, for tests that only hold a
  // Kernel and cannot reach its pool.
  static uint64_t TotalThreadsSpawned();

 private:
  // The run epoch word: run sequence number in the high 32 bits, that run's
  // party count in the low 32. One acquire load gives a worker both, so a
  // parked excess worker never reads a party count a later Ensure() wrote.
  static uint64_t PackEpoch(uint32_t seq, uint32_t parties) {
    return static_cast<uint64_t>(seq) << 32 | parties;
  }
  static uint32_t EpochSeq(uint64_t e) { return static_cast<uint32_t>(e >> 32); }
  static uint32_t EpochParties(uint64_t e) { return static_cast<uint32_t>(e); }

  void Shutdown();
  // Publishes run seq_+1 with `parties` and wakes every thread.
  void BumpEpoch(uint32_t parties);
  void Loop(uint32_t id, uint32_t seen, uint64_t pin_gen);
  // Caches the machine topology (and the full allowed-CPU set, for un-pin)
  // once, before any pin narrows the mask Detect() reads.
  void EnsureTopology();

  // Active party count for the next Run. Caller-only: workers learn it from
  // the epoch word.
  uint32_t parties_ = 0;
  std::function<void(uint32_t)> body_;
  uint32_t seq_ = 0;  // Caller-only: the last published run sequence number.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> threads_;  // High-water set; ids 1..size().
  uint64_t threads_spawned_ = 0;
  AffinityPolicy placement_ = AffinityPolicy::kNone;
  // Pin targets; empty = no pinning. Active workers read it after acquiring
  // the epoch; a spawned thread gets its first target by value.
  std::vector<uint32_t> cpu_order_;
  // Bumped on every placement change; workers re-pin when their last-seen
  // generation lags. Plain field, written between runs, read by active
  // workers after the epoch release/acquire edge.
  uint64_t placement_gen_ = 0;
  bool caller_pinned_ = false;
  bool topology_cached_ = false;
  CpuTopology topology_;
  std::vector<uint32_t> all_cpus_;  // Allowed set before any pin; for un-pin.
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_
