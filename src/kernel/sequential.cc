#include "src/kernel/sequential.h"

#include <algorithm>

namespace unison {

RunResult SequentialKernel::Run(Time stop_time) {
  // The sequential kernel is always set up with the single-LP partition; a
  // larger partition would still execute correctly but pay mailbox overhead
  // for nothing.
  Lp* const lp = lps_[0].get();
  // The migration apply is a no-op in the single-executor domain, yet it
  // keeps the provenance fields (migrations, ownership epoch) uniform across
  // kernels.
  ApplyPendingMigrations();
  BeginWindow();
  const bool profiling = profiler_ != nullptr && profiler_->enabled;
  if (profiling) {
    profiler_->BeginRun(1);
  }
  if (trace_ != nullptr && trace_->enabled) {
    trace_->BeginRun("sequential", 1, num_lps());
  }
  const uint64_t t0 = Profiler::NowNs();

  processed_events_ = 0;
  RunReason reason = RunReason::kStopRequested;
  while (!stop_requested_) {
    const Time npub = public_lp_->fel().NextTimestamp();
    const Time nloc = lp->fel().NextTimestamp();
    const Time next = std::min(npub, nloc);
    if (next.IsMax()) {
      reason = RunReason::kExhausted;
      break;
    }
    if (next >= stop_time) {
      reason = RunReason::kWindowReached;
      break;
    }
    if (npub <= nloc) {
      // Global events run before node events with the same timestamp, the
      // same order the parallel kernels' phase structure produces.
      processed_events_ += RunGlobalEvents(npub, stop_time);
    } else {
      processed_events_ += lp->ProcessUntil(std::min(npub, stop_time));
    }
  }
  const uint64_t count = processed_events_;

  const uint64_t wall_ns = Profiler::NowNs() - t0;
  if (profiling) {
    auto& stats = profiler_->executor(0);
    stats.processing_ns = wall_ns;
    stats.events = count;
  }
  return FinishRun("sequential", 1, wall_ns, stop_time, reason);
}

}  // namespace unison
