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
// Placement is left to the OS scheduler: nothing here pins a thread.
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

namespace unison {

// Number of CPUs in the calling thread's allowed mask (sched_getaffinity);
// hardware_concurrency() where the mask is unavailable. Never 0. The round
// barrier sizes its spin regime with it, and the controller's
// oversubscription rule fits the party count to it.
uint32_t CountUsableCpus();

class ExecutorPool {
 public:
  ExecutorPool() = default;
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  // Ensures the pool runs `parties` workers, the caller counting as worker 0.
  // Growth beyond the high-water mark spawns only the missing threads;
  // shrinking parks the excess in place (no retire/respawn).
  void Ensure(uint32_t parties);

  uint32_t parties() const { return parties_; }

  // CPUs the caller may run on (CountUsableCpus). The round kernels size
  // their barrier's spin regime with it.
  uint32_t usable_cores() const { return CountUsableCpus(); }

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
  void Loop(uint32_t id, uint32_t seen);

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
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_
