// Shared helpers for the test suite: canned scenarios that run the same
// model under different kernels and report comparable outcomes.
#ifndef UNISON_TESTS_TEST_UTIL_H_
#define UNISON_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>

#include "src/kernel/engine/executor_pool.h"
#include "src/net/app.h"
#include "src/net/network.h"
#include "src/stats/digest.h"
#include "src/topo/fat_tree.h"
#include "src/traffic/flow_source.h"
#include "src/traffic/generator.h"

namespace unison {

struct RunOutcome {
  uint64_t events = 0;
  uint64_t fingerprint = 0;
  FlowSummary summary;
  uint64_t rounds = 0;
  uint32_t lps = 0;
};

// Builds a k=4 fat-tree with permutation + random traffic and runs it for
// `sim_ms` milliseconds of simulated time under the given kernel config.
inline RunOutcome RunFatTreeScenario(const KernelConfig& kcfg, PartitionMode partition,
                                     uint32_t k = 4, uint64_t gbps = 10, int sim_ms = 5,
                                     uint64_t seed = 1, double load = 0.1) {
  SimConfig cfg;
  cfg.kernel = kcfg;
  cfg.partition = partition;
  cfg.seed = seed;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, k, gbps * 1000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    auto lp = FatTreePodPartition(topo, net.num_nodes());
    net.SetManualPartition(k, std::move(lp));
  }
  net.Finalize();

  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = load;
  traffic.duration = Time::Milliseconds(sim_ms);
  GenerateTraffic(net, traffic);

  net.Run(Time::Milliseconds(sim_ms));

  RunOutcome out;
  out.events = net.kernel().processed_events();
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.summary = net.flow_monitor().Summarize();
  out.rounds = net.kernel().rounds();
  out.lps = net.kernel().num_lps();
  return out;
}

// The same scenario advanced as a windowed session: `windows` consecutive
// Run() calls covering [0, sim_ms) in equal slices. Per the session
// invariant, the outcome must be bit-identical to RunFatTreeScenario with the
// same parameters for any window count. When `spawned_delta` is non-null it
// receives the number of OS threads spawned process-wide *between* the first
// and last window — zero when the pool parks its workers as promised.
inline RunOutcome RunFatTreeScenarioWindowed(
    const KernelConfig& kcfg, PartitionMode partition, uint32_t windows,
    uint32_t k = 4, uint64_t gbps = 10, int sim_ms = 5, uint64_t seed = 1,
    uint64_t* spawned_delta = nullptr) {
  SimConfig cfg;
  cfg.kernel = kcfg;
  cfg.partition = partition;
  cfg.seed = seed;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, k, gbps * 1000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    auto lp = FatTreePodPartition(topo, net.num_nodes());
    net.SetManualPartition(k, std::move(lp));
  }
  net.Finalize();

  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(sim_ms);
  GenerateTraffic(net, traffic);

  const int64_t total_ps = Time::Milliseconds(sim_ms).ps();
  uint64_t spawned_before = 0;
  for (uint32_t w = 1; w <= windows; ++w) {
    if (w == 2 && spawned_delta != nullptr) {
      spawned_before = ExecutorPool::TotalThreadsSpawned();
    }
    const Time stop = w == windows
                          ? Time::Milliseconds(sim_ms)
                          : Time::Picoseconds(total_ps * w / windows);
    net.Run(stop);
  }
  if (spawned_delta != nullptr) {
    *spawned_delta = windows > 1
                         ? ExecutorPool::TotalThreadsSpawned() - spawned_before
                         : 0;
  }

  RunOutcome out;
  out.events = net.kernel().session_events();
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.summary = net.flow_monitor().Summarize();
  out.rounds = net.kernel().session_rounds();
  out.lps = net.kernel().num_lps();
  return out;
}

// What a tuned session's controller did: its rebalance decisions, and the
// LP migrations the kernel applied over the session's windows.
struct TuningActivity {
  uint64_t decisions = 0;
  uint64_t migrations = 0;
};

// RunFatTreeScenarioWindowed with full SimConfig control: the tuning-plane
// tests need to set TuningMode/ControllerConfig (and compare against the
// plain helpers, which leave tuning off). `windows` counts the *caller's*
// Run() slices; under kAuto the controller may sub-slice further. When
// `digest` is non-null it receives the end-of-run RunDigest; when `activity`
// is non-null, the controller's activity (zero with tuning off).
inline RunOutcome RunFatTreeScenarioConfigured(SimConfig cfg, uint32_t windows,
                                               uint32_t k = 4,
                                               uint64_t gbps = 10,
                                               int sim_ms = 5,
                                               RunDigest* digest = nullptr,
                                               TuningActivity* activity = nullptr) {
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, k, gbps * 1000000000ULL, Time::Microseconds(3));
  if (cfg.partition == PartitionMode::kManual) {
    auto lp = FatTreePodPartition(topo, net.num_nodes());
    net.SetManualPartition(k, std::move(lp));
  }
  net.Finalize();

  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(sim_ms);
  GenerateTraffic(net, traffic);

  const int64_t total_ps = Time::Milliseconds(sim_ms).ps();
  for (uint32_t w = 1; w <= windows; ++w) {
    const Time stop = w == windows
                          ? Time::Milliseconds(sim_ms)
                          : Time::Picoseconds(total_ps * w / windows);
    net.Run(stop);
  }
  if (digest != nullptr) {
    *digest = DigestOf(net);
  }
  if (activity != nullptr) {
    *activity = TuningActivity{};
    if (net.controller() != nullptr) {
      activity->decisions = net.controller()->decisions().size();
    }
    for (const WindowTraceSegment& seg : net.run_trace().segments()) {
      activity->migrations += seg.summary.migrations;
    }
  }

  RunOutcome out;
  out.events = net.kernel().session_events();
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.summary = net.flow_monitor().Summarize();
  out.rounds = net.kernel().session_rounds();
  out.lps = net.kernel().num_lps();
  return out;
}

// A built-but-not-yet-run fat-tree scenario: permutation flows installed up
// front plus streaming per-host FlowSources. The snapshot/fork tests advance
// the network window by window, so they need the live Network rather than a
// finished RunOutcome.
struct FatTreeScenario {
  std::unique_ptr<Network> net;
  FatTreeTopo topo;
  StreamingTraffic stream;
};

inline FatTreeScenario BuildFatTreeScenarioStreaming(
    const KernelConfig& kcfg, PartitionMode partition, uint32_t k = 4,
    uint64_t gbps = 10, int sim_ms = 5, uint64_t seed = 1, double load = 0.1) {
  SimConfig cfg;
  cfg.kernel = kcfg;
  cfg.partition = partition;
  cfg.seed = seed;
  FatTreeScenario s;
  s.net = std::make_unique<Network>(cfg);
  s.topo = BuildFatTree(*s.net, k, gbps * 1000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    auto lp = FatTreePodPartition(s.topo, s.net->num_nodes());
    s.net->SetManualPartition(k, std::move(lp));
  }
  s.net->Finalize();

  GeneratePermutation(*s.net, s.topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = s.topo.hosts;
  traffic.bisection_bps = s.topo.bisection_bps;
  traffic.load = load;
  traffic.duration = Time::Milliseconds(sim_ms);
  s.stream = InstallFlowSources(*s.net, traffic);
  return s;
}

inline RunOutcome OutcomeOf(Network& net) {
  RunOutcome out;
  out.events = net.kernel().session_events();
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.summary = net.flow_monitor().Summarize();
  out.rounds = net.kernel().session_rounds();
  out.lps = net.kernel().num_lps();
  return out;
}

// The same scenario with the Poisson load installed as streaming per-host
// FlowSources (one pending arrival each) instead of materialized flows, run
// in `windows` consecutive Run() slices (1 = monolithic). Per the streaming
// invariant, the outcome is bit-identical to RunFatTreeScenario /
// RunFatTreeScenarioWindowed with the same parameters. When `streamed_flows`
// is non-null it receives the number of flows the sources installed at run
// time.
inline RunOutcome RunFatTreeScenarioStreaming(
    const KernelConfig& kcfg, PartitionMode partition, uint32_t windows = 1,
    uint32_t k = 4, uint64_t gbps = 10, int sim_ms = 5, uint64_t seed = 1,
    double load = 0.1, uint64_t* streamed_flows = nullptr) {
  FatTreeScenario s =
      BuildFatTreeScenarioStreaming(kcfg, partition, k, gbps, sim_ms, seed, load);

  const int64_t total_ps = Time::Milliseconds(sim_ms).ps();
  for (uint32_t w = 1; w <= windows; ++w) {
    const Time stop = w == windows
                          ? Time::Milliseconds(sim_ms)
                          : Time::Picoseconds(total_ps * w / windows);
    s.net->Run(stop);
  }
  if (streamed_flows != nullptr) {
    *streamed_flows = s.stream.set->installed_flows();
  }
  return OutcomeOf(*s.net);
}

}  // namespace unison

#endif  // UNISON_TESTS_TEST_UTIL_H_
