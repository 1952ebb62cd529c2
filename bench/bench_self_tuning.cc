// Self-tuning on an oversubscribed host: static KernelConfig defaults vs
// tuning=auto, same scenario, same results.
//
// The static run drives a Unison kernel with several times more worker
// threads than the machine has cores — the configuration PARSIR (PAPERS.md)
// warns about, where every reduction barrier parks in the futex behind
// descheduled peers. The tuned run starts from the identical config with
// TuningMode::kAuto: Network::Finalize fits the worker count to the usable
// CPUs once, and Network::Run slices the run into 0.5 ms windows for the
// rebalance rule.
//
// The pass criteria are the contract, not raw speed: bit-identical
// FlowMonitor fingerprints (tuning must never change results), a final
// executor count that fits the machine, and a run that was actually sliced
// into windows. Wall times are reported honestly for whatever host runs
// this; the speedup is CI-gated with a generous floor because barrier
// overhead is only a fraction of a small scenario's runtime.
//
// Emits BENCH_self_tuning.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"

using namespace unison;
using namespace unison::bench;

namespace {

struct TunedRun {
  uint64_t wall_ns = 0;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint32_t windows = 0;
  uint32_t executors = 0;
};

TunedRun RunOnce(SimConfig cfg, const FatTreeScenario& sc) {
  Network net(cfg);
  FatTreeBuilder(sc)(net);
  const uint64_t t0 = Profiler::NowNs();
  net.Run(sc.duration);
  TunedRun out;
  out.wall_ns = Profiler::NowNs() - t0;
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.events = net.kernel().session_events();
  out.windows = net.kernel().session_windows();
  out.executors = net.kernel().MaxExecutors();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");

  const uint32_t cpus = CountUsableCpus();
  // 4x the machine, capped so many-core hosts don't spawn hundreds of
  // workers; at least 4 so the 1-core reference container is oversubscribed.
  const uint32_t threads = std::max(4u, std::min(32u, 4 * cpus));

  FatTreeScenario sc;
  sc.k = 4;
  sc.load = 0.3;
  sc.duration = Time::Milliseconds(quick ? 2 : 5);

  SimConfig base;
  ApplyDcnTcp(&base);
  base.kernel.type = KernelType::kUnison;
  base.kernel.threads = threads;

  std::printf("self-tuning: k=4 fat-tree, %u threads on %u cpu(s), %s\n",
              threads, cpus, quick ? "quick" : "full");

  const TunedRun st = RunOnce(base, sc);

  SimConfig tuned = base;
  tuned.tuning = TuningMode::kAuto;
  tuned.tuning_config.min_rounds = 1;
  tuned.tuning_config.window_ps = 500'000'000;  // 0.5 ms slices.
  const TunedRun tu = RunOnce(tuned, sc);

  const double speedup = tu.wall_ns == 0
                             ? 0.0
                             : static_cast<double>(st.wall_ns) /
                                   static_cast<double>(tu.wall_ns);
  const bool fingerprint_match =
      tu.fingerprint == st.fingerprint && tu.events == st.events;

  Table table({"run", "wall ms", "windows", "executors"});
  table.Row({"static", Fmt("%.1f", st.wall_ns * 1e-6), Fmt("%u", st.windows),
             Fmt("%u", st.executors)});
  table.Row({"tuned", Fmt("%.1f", tu.wall_ns * 1e-6), Fmt("%u", tu.windows),
             Fmt("%u", tu.executors)});
  table.Print();
  std::printf("  speedup %.2fx, fingerprints %s\n", speedup,
              fingerprint_match ? "match" : "DIVERGE");

  const bool pass =
      fingerprint_match && tu.executors <= cpus && tu.windows > st.windows;

  FILE* out = std::fopen("BENCH_self_tuning.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n  \"bench\": \"self_tuning\",\n  \"quick\": %s,\n"
        "  \"cpus\": %u,\n  \"threads\": %u,\n"
        "  \"static_wall_ns\": %llu,\n  \"tuned_wall_ns\": %llu,\n"
        "  \"speedup\": %.4f,\n  \"fingerprint_match\": %s,\n"
        "  \"windows_static\": %u,\n  \"windows_tuned\": %u,\n"
        "  \"final_executors\": %u,\n"
        "  \"events\": %llu,\n  \"pass\": %s\n}\n",
        quick ? "true" : "false", cpus, threads,
        static_cast<unsigned long long>(st.wall_ns),
        static_cast<unsigned long long>(tu.wall_ns), speedup,
        fingerprint_match ? "true" : "false", st.windows, tu.windows,
        tu.executors, static_cast<unsigned long long>(tu.events),
        pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_self_tuning.json\n");
  }
  return pass ? 0 : 1;
}
