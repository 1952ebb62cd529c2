// Controller-driven LP migration on a skewed fat-tree: static hybrid
// partition vs tuning=auto, whose controller runs the rebalance rule.
//
// The workload concentrates most of the load inside pod 0 (a "hot rack"
// pattern), while the hybrid kernel's setup partition slices LPs across
// ranks by node range — so one rank starts out carrying the hot pod and the
// per-round imbalance stays high no matter how the claim order is re-sorted.
// The controller's rebalance rule watches mean per-round imbalance, computes
// an LPT move set from the per-LP window costs, and returns it to
// Network::Run, which stages it; the kernel relocates the LP→rank binding at
// the next window boundary.
//
// The pass criteria are the refactor's contract, not raw speed:
// bit-identical FlowMonitor fingerprints and event counts (migration must
// never change results), at least one published rebalance decision, and at
// least one applied migration batch (ownership epoch > 0). Wall times are
// reported honestly for whatever host runs this; the speedup is CI-gated
// with a generous floor because a 1-core runner serializes the ranks anyway.
//
// Emits BENCH_rebalance.json.
#include <cstdint>
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"

using namespace unison;
using namespace unison::bench;

namespace {

struct RebalanceRun {
  uint64_t wall_ns = 0;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint32_t windows = 0;
  uint64_t migration_batches = 0;  // Ownership-map epoch at end of run.
  size_t rebalance_decisions = 0;
  double observed_imbalance = 0.0;   // From the first rebalance decision.
  double predicted_imbalance = 0.0;
};

// k=4 fat-tree with the load concentrated in pod 0: every pod-0 host
// exchanges heavy flows with its podmates, the rest of the tree only sees a
// light uniform background. The hybrid setup partition slices node ranges,
// so the hot pod lands on one rank.
std::function<void(Network&)> SkewedBuilder(Time duration) {
  return [duration](Network& net) {
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    const size_t pod_hosts = topo.hosts.size() / 4;  // (k/2)^2 of k^3/4.
    const std::vector<NodeId> hot(topo.hosts.begin(),
                                  topo.hosts.begin() + pod_hosts);
    // Heavy permutation rings inside pod 0 keep its LPs busy for the whole
    // horizon (3 x 2 MB per host over 10 Gbps access links is ~5 ms of
    // sustained transfers); the rest of the tree carries one light spray.
    for (uint32_t stride = 1; stride < pod_hosts; ++stride) {
      GeneratePermutation(net, hot, 2 * 1024 * 1024, Time::Zero(), stride);
    }
    GeneratePermutation(net, topo.hosts, 100 * 1024, Time::Zero());
    // Light Poisson background so late windows still have arrivals.
    TrafficSpec background;
    background.hosts = topo.hosts;
    background.bisection_bps = topo.bisection_bps;
    background.load = 0.1;
    background.duration = duration;
    GenerateTraffic(net, background);
  };
}

RebalanceRun RunOnce(SimConfig cfg, Time duration) {
  Network net(cfg);
  SkewedBuilder(duration)(net);
  const uint64_t t0 = Profiler::NowNs();
  net.Run(duration);
  RebalanceRun out;
  out.wall_ns = Profiler::NowNs() - t0;
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.events = net.kernel().session_events();
  out.windows = net.kernel().session_windows();
  out.migration_batches = net.kernel().partition_map().epoch();
  if (net.controller() != nullptr &&
      !net.controller()->decisions().empty()) {
    const Controller::Decision& first = net.controller()->decisions().front();
    out.rebalance_decisions = net.controller()->decisions().size();
    out.observed_imbalance = first.observed_imbalance;
    out.predicted_imbalance = first.predicted_imbalance;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const Time duration = Time::Milliseconds(quick ? 2 : 5);

  SimConfig base;
  ApplyDcnTcp(&base);
  base.kernel.type = KernelType::kHybrid;
  base.kernel.ranks = 2;
  base.kernel.threads = 2;

  std::printf("rebalance: k=4 fat-tree, hot pod 0, hybrid 2x2, %s\n",
              quick ? "quick" : "full");

  const RebalanceRun st = RunOnce(base, duration);

  SimConfig tuned = base;
  tuned.tuning = TuningMode::kAuto;
  tuned.tuning_config.min_rounds = 1;
  tuned.tuning_config.window_ps = 500'000'000;  // 0.5 ms slices.
  // A hot pod is persistent, not noisy: trip the rule early and let it
  // re-fire if the first move set was not enough.
  tuned.tuning_config.rebalance_imbalance_high = 0.02;
  tuned.tuning_config.rebalance_patience = 2;
  tuned.tuning_config.rebalance_cooldown = 2;
  const RebalanceRun tu = RunOnce(tuned, duration);

  const double speedup = tu.wall_ns == 0
                             ? 0.0
                             : static_cast<double>(st.wall_ns) /
                                   static_cast<double>(tu.wall_ns);
  const bool fingerprint_match =
      tu.fingerprint == st.fingerprint && tu.events == st.events;

  Table table({"run", "wall ms", "windows", "migrations", "decisions"});
  table.Row({"static", Fmt("%.1f", st.wall_ns * 1e-6), Fmt("%u", st.windows),
             Fmt("%llu", static_cast<unsigned long long>(st.migration_batches)),
             "0"});
  table.Row({"rebalanced", Fmt("%.1f", tu.wall_ns * 1e-6), Fmt("%u", tu.windows),
             Fmt("%llu", static_cast<unsigned long long>(tu.migration_batches)),
             Fmt("%zu", tu.rebalance_decisions)});
  table.Print();
  std::printf(
      "  speedup %.2fx, fingerprints %s, rebalances %zu "
      "(imbalance %.3f -> predicted %.3f)\n",
      speedup, fingerprint_match ? "match" : "DIVERGE", tu.rebalance_decisions,
      tu.observed_imbalance, tu.predicted_imbalance);

  const bool pass = fingerprint_match && tu.rebalance_decisions >= 1 &&
                    tu.migration_batches >= 1;

  FILE* out = std::fopen("BENCH_rebalance.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n  \"bench\": \"rebalance\",\n  \"quick\": %s,\n"
        "  \"static_wall_ns\": %llu,\n  \"tuned_wall_ns\": %llu,\n"
        "  \"speedup\": %.4f,\n  \"fingerprint_match\": %s,\n"
        "  \"rebalance_decisions\": %zu,\n"
        "  \"migration_batches\": %llu,\n"
        "  \"observed_imbalance\": %.4f,\n  \"predicted_imbalance\": %.4f,\n"
        "  \"windows_static\": %u,\n  \"windows_tuned\": %u,\n"
        "  \"events\": %llu,\n  \"pass\": %s\n}\n",
        quick ? "true" : "false",
        static_cast<unsigned long long>(st.wall_ns),
        static_cast<unsigned long long>(tu.wall_ns), speedup,
        fingerprint_match ? "true" : "false", tu.rebalance_decisions,
        static_cast<unsigned long long>(tu.migration_batches),
        tu.observed_imbalance, tu.predicted_imbalance,
        st.windows, tu.windows,
        static_cast<unsigned long long>(tu.events), pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_rebalance.json\n");
  }
  return pass ? 0 : 1;
}
