// The benchmark's three workloads, each driven end to end through the
// library's public API: build the topology, finalize, install traffic, run,
// and read the results back.
//
//   fattree-dense  k=8 fat-tree, Poisson web-search sources, one Run.
//   torus-sync     16x16 torus, 100 ns lookahead, fixed session windows.
//   wan-whatif     8 uneven sites on a 100 ns ring, speculation, warm
//                  prefix + Snapshot + SaveTo/LoadFrom + forked branches.
//
// A sample runs one workload once, either under the parallel configuration
// (KernelType::kUnison, `threads` workers) or under the sequential oracle
// (KernelType::kSequential), through the identical sequence of public calls.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "src/stats/flow_monitor.h"

namespace perfbench {

struct SampleConfig {
  std::string workload;
  uint64_t seed = 1;
  bool parallel = true;  // false = the sequential oracle.
  uint32_t threads = 1;
  bool trace = false;    // SimConfig::trace on every network of the sample.
  std::string snapshot_path;  // Scratch file for SaveTo/LoadFrom.
};

struct SampleResult {
  // What the oracle gate compares: one entry per final network (wan-whatif:
  // one per branch, branch 0 unchanged), plus network 0's flow summary.
  std::vector<uint64_t> fingerprints;
  std::vector<uint64_t> session_events;
  unison::FlowSummary summary;

  // Wall times in seconds.
  double setup_s = 0;  // topo_build_s + finalize_s + install_s.
  double topo_build_s = 0;
  double finalize_s = 0;
  double install_s = 0;
  double run_s = 0;  // First Run to the end of the last one.
  double summarize_s = 0;
  double snapshot_s = 0;
  double save_load_s = 0;
  double fork_s = 0;
  double branch_run_s = 0;
  uint64_t snapshot_bytes = 0;

  // Work executed inside the run_s span, summed over every Run() window of
  // every network (prefix and branches alike).
  uint64_t events = 0;
  uint64_t rounds = 0;
  std::vector<double> window_ms;  // Wall time of each Run() call.

  // Partition of the sample's first network.
  uint32_t lps = 0;
  uint32_t cut_links = 0;
  int64_t lookahead_ps = 0;

  // Kernel layers from RunSummary / RoundTraceRecord (traced samples only).
  uint64_t processing_ns = 0;
  uint64_t sync_ns = 0;
  uint64_t messaging_ns = 0;
  double imbalance_x_rounds = 0;  // Round-weighted sum of window imbalance.
  uint64_t barrier_ns = 0;
  uint64_t parks = 0;
  uint64_t traced_rounds = 0;

  // Speculation (RunSummary fields, every sample).
  uint64_t spec_rounds = 0;
  uint64_t spec_hits = 0;
  uint64_t spec_misses = 0;
  uint64_t rollback_ns = 0;
  uint64_t checkpoint_captures = 0;
};

bool IsWorkload(const std::string& name);

// Runs one sample. Throws on a misuse the library reports by exception;
// FatalConfigError aborts the process, which is why samples run in a child.
SampleResult RunSample(const SampleConfig& config, SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
