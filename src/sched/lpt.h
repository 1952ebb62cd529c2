// Longest-processing-time-first list scheduling (§4.3).
//
// Assigning LPs to identical cores to minimize the makespan is the multiway
// number partitioning problem (NP-hard). Unison uses Graham's LPT rule —
// sort jobs by descending size, each idle worker takes the next one — with a
// worst-case approximation ratio of 4/3 − 1/(3m). At runtime each worker
// sorts its own home LPs this way and walks them with its own cursor, then
// steals from other lanes' sorted lists (src/kernel/unison.h): LPT within a
// lane, work stealing across lanes, and LPs stay on their owner's core. The
// sort costs O(n log n) and each claim one uncontended fetch_add.
//
// The offline helpers here are used by the parallel cost model and by the
// property tests that check the 4/3 bound against brute force.
#ifndef UNISON_SRC_SCHED_LPT_H_
#define UNISON_SRC_SCHED_LPT_H_

#include <cstdint>
#include <vector>

namespace unison {

// Produces job indices sorted by (cost descending, id ascending). The
// explicit id tie-break makes the schedule deterministic across platforms
// and standard-library versions whenever costs tie.
std::vector<uint32_t> SortByCostDescending(const std::vector<uint64_t>& cost);

// Simulates list scheduling of jobs (taken in `order`) on `workers` identical
// machines; returns the makespan and optionally the per-job worker
// assignment.
uint64_t ListScheduleMakespan(const std::vector<uint64_t>& cost,
                              const std::vector<uint32_t>& order, uint32_t workers,
                              std::vector<uint32_t>* assignment = nullptr);

// Exact optimal makespan by branch and bound; exponential, tests only.
uint64_t OptimalMakespan(const std::vector<uint64_t>& cost, uint32_t workers);

}  // namespace unison

#endif  // UNISON_SRC_SCHED_LPT_H_
