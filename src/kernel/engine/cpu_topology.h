// CPU topology detection and executor placement policies.
//
// PDES scaling past one socket is mostly a placement problem: a worker that
// migrates between cores drags the barrier and claim-cursor lines with it,
// and hybrid-kernel ranks that straddle sockets turn every all-reduce into
// cross-socket traffic. This module reads the machine's package/core layout
// (the CPUs this process may use, via sched_getaffinity, and their
// physical_package_id/core_id from sysfs) and turns a KernelConfig affinity
// policy into a concrete CPU order the ExecutorPool pins workers to.
//
// On non-Linux hosts — or when sysfs is unavailable — detection falls back to
// hardware_concurrency() with every CPU in one package, and pinning becomes a
// no-op; the policies stay accepted so configs are portable.
#ifndef UNISON_SRC_KERNEL_ENGINE_CPU_TOPOLOGY_H_
#define UNISON_SRC_KERNEL_ENGINE_CPU_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace unison {

// Worker-to-core placement policy, selected by KernelConfig::affinity.
enum class AffinityPolicy : uint8_t {
  kNone = 0,  // No pinning; the OS scheduler places workers.
  kCompact,   // Fill one package before the next; distinct physical cores
              // before SMT siblings. Ranks land socket-major (hybrid).
  kScatter,   // Round-robin across packages: maximizes aggregate cache and
              // memory bandwidth per worker.
};

// Stable identifier ("none" | "compact" | "scatter") for configs and traces.
const char* AffinityPolicyName(AffinityPolicy policy);

// Parses the identifier back; returns false (out untouched) on unknown names.
bool AffinityPolicyFromName(const std::string& name, AffinityPolicy* out);

struct CpuTopology {
  struct Cpu {
    uint32_t id = 0;       // OS CPU number.
    uint32_t package = 0;  // Socket (physical_package_id).
    uint32_t core = 0;     // Physical core within the package.
  };
  std::vector<Cpu> cpus;  // CPUs this process is allowed to run on.

  // Reads the live topology (sched_getaffinity + sysfs); portable fallback
  // is hardware_concurrency() CPUs in one package. Never returns empty.
  static CpuTopology Detect();

  // The CPU ids workers should be pinned to, in worker-id order, under
  // `policy`. Worker w uses order[w % order.size()] — when the party count
  // exceeds the machine, placement wraps instead of failing. Empty (no
  // pinning) for kNone.
  std::vector<uint32_t> PlacementOrder(AffinityPolicy policy) const;
};

// Number of CPUs in the calling thread's allowed mask (sched_getaffinity),
// without Detect()'s per-CPU sysfs reads; hardware_concurrency() where the
// mask is unavailable. Never 0.
uint32_t CountUsableCpus();

// Pins the calling thread to `cpu`. Returns false where unsupported (the
// portable no-op) or when the kernel rejects the mask.
bool PinCurrentThreadToCpu(uint32_t cpu);

// Widens the calling thread's mask to all of `cpus` — the inverse of a pin,
// used when a live placement policy is dropped back to kNone. Returns false
// where unsupported or when `cpus` is empty.
bool PinCurrentThreadToCpus(const std::vector<uint32_t>& cpus);

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_CPU_TOPOLOGY_H_
