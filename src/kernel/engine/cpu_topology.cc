#include "src/kernel/engine/cpu_topology.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace unison {

const char* AffinityPolicyName(AffinityPolicy policy) {
  switch (policy) {
    case AffinityPolicy::kNone:
      return "none";
    case AffinityPolicy::kCompact:
      return "compact";
    case AffinityPolicy::kScatter:
      return "scatter";
  }
  return "unknown";
}

bool AffinityPolicyFromName(const std::string& name, AffinityPolicy* out) {
  if (name == "none") {
    *out = AffinityPolicy::kNone;
  } else if (name == "compact") {
    *out = AffinityPolicy::kCompact;
  } else if (name == "scatter") {
    *out = AffinityPolicy::kScatter;
  } else {
    return false;
  }
  return true;
}

namespace {

#if defined(__linux__)
// Reads a small non-negative integer from a sysfs file; `fallback` when the
// file is missing (containers often mask sysfs) or unparsable.
int ReadSysfsInt(const char* path, int fallback) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return fallback;
  }
  int value = fallback;
  if (std::fscanf(f, "%d", &value) != 1 || value < 0) {
    value = fallback;
  }
  std::fclose(f);
  return value;
}
#endif

}  // namespace

CpuTopology CpuTopology::Detect() {
  CpuTopology topo;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (uint32_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask)) {
        continue;
      }
      char path[128];
      std::snprintf(path, sizeof(path),
                    "/sys/devices/system/cpu/cpu%u/topology/physical_package_id",
                    cpu);
      const int package = ReadSysfsInt(path, 0);
      std::snprintf(path, sizeof(path),
                    "/sys/devices/system/cpu/cpu%u/topology/core_id", cpu);
      // Missing core_id degrades to "every CPU its own core", which keeps
      // compact placement sane (no false SMT siblings).
      const int core = ReadSysfsInt(path, static_cast<int>(cpu));
      topo.cpus.push_back(Cpu{cpu, static_cast<uint32_t>(package),
                              static_cast<uint32_t>(core)});
    }
  }
#endif
  if (topo.cpus.empty()) {
    uint32_t n = std::thread::hardware_concurrency();
    if (n == 0) {
      n = 1;
    }
    for (uint32_t cpu = 0; cpu < n; ++cpu) {
      topo.cpus.push_back(Cpu{cpu, 0, cpu});
    }
  }
  return topo;
}

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

std::vector<uint32_t> CpuTopology::PlacementOrder(AffinityPolicy policy) const {
  if (policy == AffinityPolicy::kNone || cpus.empty()) {
    return {};
  }
  // Per-package CPU orders: distinct physical cores first (one CPU per core,
  // lowest id), then the SMT siblings — a worker should own a core before any
  // core is double-booked.
  std::map<uint32_t, std::vector<Cpu>> by_package;
  for (const Cpu& c : cpus) {
    by_package[c.package].push_back(c);
  }
  std::vector<std::vector<uint32_t>> package_orders;
  for (auto& [package, list] : by_package) {
    (void)package;
    std::sort(list.begin(), list.end(), [](const Cpu& a, const Cpu& b) {
      return a.core != b.core ? a.core < b.core : a.id < b.id;
    });
    std::vector<uint32_t> firsts;
    std::vector<uint32_t> siblings;
    std::set<uint32_t> seen_cores;
    for (const Cpu& c : list) {
      (seen_cores.insert(c.core).second ? firsts : siblings).push_back(c.id);
    }
    firsts.insert(firsts.end(), siblings.begin(), siblings.end());
    package_orders.push_back(std::move(firsts));
  }

  std::vector<uint32_t> order;
  order.reserve(cpus.size());
  if (policy == AffinityPolicy::kCompact) {
    for (const auto& pkg : package_orders) {
      order.insert(order.end(), pkg.begin(), pkg.end());
    }
  } else {  // kScatter: round-robin across packages.
    size_t depth = 0;
    bool more = true;
    while (more) {
      more = false;
      for (const auto& pkg : package_orders) {
        if (depth < pkg.size()) {
          order.push_back(pkg[depth]);
          more = true;
        }
      }
      ++depth;
    }
  }
  return order;
}

bool PinCurrentThreadToCpu(uint32_t cpu) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  return sched_setaffinity(0, sizeof(mask), &mask) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool PinCurrentThreadToCpus(const std::vector<uint32_t>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) {
    return false;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (uint32_t cpu : cpus) {
    if (cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &mask);
    }
  }
  return sched_setaffinity(0, sizeof(mask), &mask) == 0;
#else
  (void)cpus;
  return false;
#endif
}

}  // namespace unison
