#include "src/kernel/engine/executor_pool.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/core/executor_id.h"

namespace unison {

uint32_t CountUsableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0 && CPU_COUNT(&mask) > 0) {
    return static_cast<uint32_t>(CPU_COUNT(&mask));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

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

void ExecutorPool::Ensure(uint32_t parties) {
  if (parties == parties_) {
    return;
  }
  parties_ = parties;
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
  // for "already seen" and sleep through it.
  const uint32_t seen = seq_;
  for (uint32_t id = static_cast<uint32_t>(threads_.size()) + 1;
       id <= want_threads; ++id) {
    threads_.emplace_back([this, id, seen] { Loop(id, seen); });
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

void ExecutorPool::Loop(uint32_t id, uint32_t seen) {
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
      SetCurrentExecutorId(static_cast<int>(id));
      body_(id);
      SetCurrentExecutorId(kNoExecutor);
      done_.fetch_add(1, std::memory_order_acq_rel);
      done_.notify_all();
    }
  }
}

}  // namespace unison
