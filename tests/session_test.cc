// Windowed sessions: Finalize() yields a warm session on which Run(stop) is
// called repeatedly. The load-bearing invariant — K windowed runs are
// bit-identical to one monolithic run to the same stop time, for every
// kernel — plus the zero-respawn guarantee, RunResult/RunReason semantics,
// session accumulators, per-window trace segments, incremental traffic
// injection, and KernelConfig validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/kernel/engine/executor_pool.h"
#include "src/net/session.h"
#include "tests/test_util.h"

namespace unison {
namespace {

struct KernelCase {
  const char* name;
  KernelConfig config;
  PartitionMode partition;
};

std::vector<KernelCase> AllKernels() {
  std::vector<KernelCase> cases;
  {
    KernelConfig k;
    k.type = KernelType::kSequential;
    cases.push_back({"sequential", k, PartitionMode::kSingle});
  }
  {
    KernelConfig k;
    k.type = KernelType::kBarrier;
    k.deterministic = true;
    cases.push_back({"barrier", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kNullMessage;
    k.deterministic = true;
    cases.push_back({"nullmsg", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = 2;
    cases.push_back({"unison", k, PartitionMode::kAuto});
  }
  {
    KernelConfig k;
    k.type = KernelType::kHybrid;
    k.ranks = 2;
    k.threads = 2;
    cases.push_back({"hybrid", k, PartitionMode::kAuto});
  }
  return cases;
}

class SessionWindowEquivalence
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

// The tentpole invariant: splitting one run into K windows changes nothing —
// same flow-monitor fingerprint, same flow summary, same total event count.
TEST_P(SessionWindowEquivalence, WindowedMatchesMonolithic) {
  const int kernel_index = std::get<0>(GetParam());
  const uint32_t windows = std::get<1>(GetParam());
  const KernelCase kc = AllKernels()[kernel_index];
  SCOPED_TRACE(std::string(kc.name) + " x " + std::to_string(windows));

  const RunOutcome mono = RunFatTreeScenario(kc.config, kc.partition);
  uint64_t spawned_between = 0;
  const RunOutcome windowed = RunFatTreeScenarioWindowed(
      kc.config, kc.partition, windows, 4, 10, 5, 1, &spawned_between);

  EXPECT_EQ(windowed.fingerprint, mono.fingerprint);
  EXPECT_EQ(windowed.events, mono.events);
  EXPECT_EQ(windowed.summary.completed, mono.summary.completed);
  EXPECT_EQ(windowed.lps, mono.lps);
  // Satellite: the pool's threads park between windows — zero respawns after
  // the first window, for every kernel.
  EXPECT_EQ(spawned_between, 0u);
}

std::string SessionCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t>>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllSplits, SessionWindowEquivalence,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1u, 2u, 5u)),
    SessionCaseName);

// RunResult semantics: a window that stops with work pending reports
// kWindowReached; once the workload drains, kExhausted; session accumulators
// sum the per-window results.
TEST(SessionResult, ReasonsAndAccumulators) {
  for (const KernelCase& kc : AllKernels()) {
    SCOPED_TRACE(kc.name);
    SimConfig cfg;
    cfg.kernel = kc.config;
    cfg.partition = kc.partition;
    Network net(cfg);
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    if (kc.partition == PartitionMode::kManual) {
      net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
    }
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());

    const RunResult first = net.Run(Time::Microseconds(100));
    EXPECT_EQ(first.reason, RunReason::kWindowReached);
    EXPECT_EQ(first.end, Time::Microseconds(100));
    EXPECT_GT(first.events, 0u);
    EXPECT_EQ(net.session_time(), Time::Microseconds(100));
    EXPECT_EQ(net.kernel().session_windows(), 1u);
    EXPECT_EQ(net.kernel().session_events(), first.events);

    const RunResult second = net.Run(Time::Milliseconds(1));
    EXPECT_NE(second.reason, RunReason::kStopRequested);
    EXPECT_GT(second.events, 0u);
    EXPECT_EQ(net.session_time(), Time::Milliseconds(1));
    EXPECT_EQ(net.kernel().session_windows(), 2u);
    EXPECT_EQ(net.kernel().session_events(), first.events + second.events);
    EXPECT_EQ(net.kernel().session_rounds(), first.rounds + second.rounds);

    // Genuine exhaustion — a horizon outliving every flow and timer — is
    // asserted on the sequential kernel only: retransmission-timer tails
    // stretch for simulated seconds, cheap to drain event-by-event but a
    // round-per-timestamp grind for the barrier-phase kernels. (engine_test
    // covers kExhausted for every parallel kernel on a small scenario.)
    if (kc.config.type == KernelType::kSequential) {
      const RunResult last = net.Run(Time::Seconds(60));
      EXPECT_EQ(last.reason, RunReason::kExhausted);
      EXPECT_EQ(net.kernel().session_windows(), 3u);
      EXPECT_EQ(net.kernel().session_events(),
                first.events + second.events + last.events);
    }
  }
}

// A stop request ends one window without poisoning the session: the next
// Run() continues, and the final state matches an uninterrupted session.
TEST(SessionResult, StopRequestEndsWindowNotSession) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  net.sim().ScheduleGlobal(Time::Microseconds(50), [&net] { net.sim().Stop(); });

  const RunResult stopped = net.Run(Time::Milliseconds(5));
  EXPECT_EQ(stopped.reason, RunReason::kStopRequested);
  // The aborted window does not advance the session clock.
  EXPECT_EQ(net.session_time(), Time::Zero());

  const RunResult resumed = net.Run(Time::Milliseconds(5));
  EXPECT_NE(resumed.reason, RunReason::kStopRequested);
  EXPECT_EQ(net.session_time(), Time::Milliseconds(5));
  EXPECT_GT(resumed.events, 0u);
  EXPECT_EQ(net.kernel().session_windows(), 2u);
}

// Trace segments: one archived segment per window, cumulative sums, and the
// CSV covering every window.
TEST(SessionTrace, SegmentsPerWindowAndCumulative) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());

  // Boundaries inside the active phase of the workload, so both windows
  // execute rounds.
  const RunResult w0 = net.Run(Time::Microseconds(100));
  const RunResult w1 = net.Run(Time::Microseconds(200));

  const RunTrace& trace = net.run_trace();
  ASSERT_EQ(trace.segments().size(), 2u);
  EXPECT_EQ(trace.segments()[0].summary.window_index, 0u);
  EXPECT_EQ(trace.segments()[0].summary.events, w0.events);
  EXPECT_EQ(trace.segments()[0].summary.window_stop_ps,
            Time::Microseconds(100).ps());
  EXPECT_EQ(trace.segments()[1].summary.window_index, 1u);
  EXPECT_EQ(trace.segments()[1].summary.events, w1.events);
  EXPECT_EQ(trace.segments()[1].summary.window_start_ps,
            Time::Microseconds(100).ps());
  EXPECT_EQ(trace.segments()[0].summary.reason, "window");
  EXPECT_FALSE(trace.segments()[0].records.empty());
  EXPECT_FALSE(trace.segments()[1].records.empty());

  const RunSummary total = trace.Cumulative();
  EXPECT_EQ(total.events, w0.events + w1.events);
  EXPECT_EQ(total.rounds, w0.rounds + w1.rounds);
  EXPECT_EQ(total.window_start_ps, 0);
  EXPECT_EQ(total.window_stop_ps, Time::Microseconds(200).ps());

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"windows\":2"), std::string::npos);
  EXPECT_NE(json.find("\"segments\":[{"), std::string::npos);

  // The CSV carries rows for both windows.
  const std::string csv = trace.ToCsv();
  EXPECT_NE(csv.find("\n0,"), std::string::npos);
  EXPECT_NE(csv.find("\n1,"), std::string::npos);

  // A fresh Setup starts a fresh session: segments reset.
  net.kernel().Setup(net.graph(), net.partition());
  EXPECT_TRUE(net.run_trace().segments().empty());
  EXPECT_EQ(net.kernel().session_windows(), 0u);
}

// Incremental injection: flows added between windows re-anchor at the
// session time, and the result matches a monolithic run whose extra flows
// were installed up front at the same absolute time.
TEST(SessionInjection, MidSessionTrafficMatchesUpFrontInstall) {
  auto config = [] {
    SimConfig cfg;
    cfg.kernel.type = KernelType::kUnison;
    cfg.kernel.threads = 2;
    cfg.seed = 3;
    return cfg;
  };
  auto build = [](Network& net) {
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 100 * 1024, Time::Zero());
    return topo;
  };
  auto burst = [](const FatTreeTopo& topo) {
    TrafficSpec spec;
    spec.hosts = topo.hosts;
    spec.bisection_bps = topo.bisection_bps;
    spec.load = 0.5;  // Dense enough that the 3ms window surely draws flows.
    spec.duration = Time::Milliseconds(3);
    spec.rng_stream = 700;
    return spec;
  };

  SimConfig cfg = config();
  Network windowed(cfg);
  const FatTreeTopo wt = build(windowed);
  windowed.Run(Time::Milliseconds(2));
  const GeneratedTraffic injected = InjectTraffic(windowed, burst(wt));
  ASSERT_FALSE(injected.flow_ids.empty());
  windowed.Run(Time::Milliseconds(8));

  Network mono(config());
  const FatTreeTopo mt = build(mono);
  TrafficSpec up_front = burst(mt);
  up_front.start = Time::Milliseconds(2);  // Same absolute arrival window.
  const GeneratedTraffic installed = GenerateTraffic(mono, up_front);
  ASSERT_EQ(installed.flow_ids.size(), injected.flow_ids.size());
  ASSERT_EQ(installed.total_bytes, injected.total_bytes);
  mono.Run(Time::Milliseconds(8));

  EXPECT_EQ(windowed.flow_monitor().Fingerprint(),
            mono.flow_monitor().Fingerprint());
  EXPECT_EQ(windowed.kernel().session_events(),
            mono.kernel().session_events());
}

// --- Snapshot/Fork ---

class ForkTransparency
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, int>> {};

// The fork-transparency contract: Snapshot after k warm windows + Fork + Run
// to T is bit-identical to one monolithic run to T — FlowMonitor
// fingerprint, completion counts, and the session event accumulator — for
// every kernel and fork count. Forks borrow the parent's warm pool, so the
// whole sweep spawns zero new OS threads; and the snapshot itself is
// execution-neutral, so the parent still converges to the same state.
TEST_P(ForkTransparency, ForkedRunMatchesMonolithic) {
  const int kernel_index = std::get<0>(GetParam());
  const uint32_t snap_ms = std::get<1>(GetParam());
  const int forks = std::get<2>(GetParam());
  const KernelCase kc = AllKernels()[kernel_index];
  SCOPED_TRACE(std::string(kc.name) + " snap@" + std::to_string(snap_ms) +
               "ms x" + std::to_string(forks));

  const RunOutcome mono =
      RunFatTreeScenarioStreaming(kc.config, kc.partition, 1);

  FatTreeScenario parent =
      BuildFatTreeScenarioStreaming(kc.config, kc.partition);
  for (uint32_t w = 1; w <= snap_ms; ++w) {
    parent.net->Run(Time::Milliseconds(w));
  }
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();
  EXPECT_GT(snap.size_bytes(), 0u);

  const uint64_t spawned_before = ExecutorPool::TotalThreadsSpawned();
  for (int f = 0; f < forks; ++f) {
    std::unique_ptr<Network> branch = session.Fork(snap);
    branch->Run(Time::Milliseconds(5));
    EXPECT_EQ(branch->flow_monitor().Fingerprint(), mono.fingerprint);
    EXPECT_EQ(branch->kernel().session_events(), mono.events);
    EXPECT_EQ(branch->flow_monitor().Summarize().completed,
              mono.summary.completed);
    EXPECT_EQ(branch->kernel().num_lps(), mono.lps);
    // Lineage: every branch RunSummary names the snapshot it grew from.
    const std::string& lineage = branch->kernel().run_summary().forked_from;
    EXPECT_EQ(lineage.rfind("snap-", 0), 0u) << lineage;
    EXPECT_NE(lineage.find("@w" + std::to_string(snap_ms)), std::string::npos)
        << lineage;
  }
  EXPECT_EQ(ExecutorPool::TotalThreadsSpawned() - spawned_before, 0u);

  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(parent.net->kernel().session_events(), mono.events);
  EXPECT_TRUE(parent.net->kernel().run_summary().forked_from.empty());
}

std::string ForkCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t, int>>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_snap" +
         std::to_string(std::get<1>(info.param)) + "ms_x" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ForkTransparency,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1u, 2u),
                                            ::testing::Values(1, 3)),
                         ForkCaseName);

// SaveTo/LoadFrom is the long-simulation resume format: the roundtrip is
// byte-exact, and a cold Restore in lieu of a warm Fork still satisfies the
// transparency contract.
TEST(SessionSnapshotIo, SaveLoadRoundtripAndColdRestore) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto, 1);

  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  parent.net->Run(Time::Milliseconds(2));
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  const std::string path = ::testing::TempDir() + "unison_fork_test.usnp";
  snap.SaveTo(path);
  const SessionSnapshot loaded = SessionSnapshot::LoadFrom(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.bytes(), snap.bytes());
  EXPECT_EQ(loaded.Digest(), snap.Digest());

  std::unique_ptr<Network> resumed = Session::Restore(loaded);
  resumed->Run(Time::Milliseconds(5));
  EXPECT_EQ(resumed->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(resumed->kernel().session_events(), mono.events);
}

// Satellite: the injection-stream counter is session state. Sibling forks
// that inject the same spec draw the same derived rng stream — identical to
// each other and to the parent performing the same injection after the
// snapshot (transparency extends through the injection path).
TEST(SessionFork, SiblingForksDrawIdenticalInjections) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);

  auto burst = [&parent](uint64_t stream) {
    TrafficSpec spec;
    spec.hosts = parent.topo.hosts;
    spec.bisection_bps = parent.topo.bisection_bps;
    spec.load = 0.3;
    spec.duration = Time::Milliseconds(2);
    spec.rng_stream = stream;
    return spec;
  };

  parent.net->Run(Time::Milliseconds(1));
  const GeneratedTraffic first = InjectTraffic(*parent.net, burst(700));
  ASSERT_FALSE(first.flow_ids.empty());
  parent.net->Run(Time::Milliseconds(2));
  ASSERT_EQ(parent.net->injection_epoch(), 1u);

  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  auto branch = [&session, &burst, &snap](bool inject) {
    std::unique_ptr<Network> fork = session.Fork(snap);
    EXPECT_EQ(fork->injection_epoch(), 1u);
    if (inject) {
      const GeneratedTraffic injected = InjectTraffic(*fork, burst(900));
      EXPECT_FALSE(injected.flow_ids.empty());
    }
    fork->Run(Time::Milliseconds(5));
    return fork->flow_monitor().Fingerprint();
  };
  const uint64_t sibling_a = branch(true);
  const uint64_t sibling_b = branch(true);
  const uint64_t no_inject = branch(false);
  EXPECT_EQ(sibling_a, sibling_b);
  EXPECT_NE(sibling_a, no_inject);

  InjectTraffic(*parent.net, burst(900));
  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), sibling_a);
}

// Divergence knobs: FailLink and ForkOptions::mutate_queue steer a branch
// away from the baseline, and equally-configured branches stay bit-identical
// to each other — the what-if sweep is deterministic per scenario.
// (Null-message is excluded: runtime global events like the link-down are
// outside that baseline's protocol, which session_test documents elsewhere.)
TEST(SessionFork, FailLinkAndQueueMutationDivergeDeterministically) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  // Load 0.5: enough post-snapshot traffic that every core link matters and
  // shallow queues actually drop.
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(
      k, PartitionMode::kAuto, 4, 10, 5, 1, 0.5);
  parent.net->Run(Time::Milliseconds(2));
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  auto run_to_end = [](std::unique_ptr<Network> net) {
    net->Run(Time::Milliseconds(5));
    return net->flow_monitor().Fingerprint();
  };

  const uint64_t baseline = run_to_end(session.Fork(snap));

  const uint32_t victim = static_cast<uint32_t>(parent.net->links().size()) - 1;
  auto failed_branch = [&] {
    std::unique_ptr<Network> fork = session.Fork(snap);
    fork->FailLink(victim, Time::Microseconds(2200));
    return run_to_end(std::move(fork));
  };
  const uint64_t failed_a = failed_branch();
  const uint64_t failed_b = failed_branch();
  EXPECT_EQ(failed_a, failed_b);
  EXPECT_NE(failed_a, baseline);

  ForkOptions shallow;
  shallow.mutate_queue = [](QueueConfig& q) { q.capacity_bytes = 3000; };
  auto shallow_branch = [&] { return run_to_end(session.Fork(snap, shallow)); };
  const uint64_t shallow_a = shallow_branch();
  const uint64_t shallow_b = shallow_branch();
  EXPECT_EQ(shallow_a, shallow_b);
  EXPECT_NE(shallow_a, baseline);
}

// --- Live tuning plane ---

// The window checkpoint is the dynamic section of a snapshot, written by one
// walk and applied by one restore: a fork's checkpoint equals its parent's
// byte for byte, under every kernel.
TEST(SessionFork, ForkDynamicStateEqualsParent) {
  for (const KernelCase& kc : AllKernels()) {
    SCOPED_TRACE(kc.name);
    FatTreeScenario parent =
        BuildFatTreeScenarioStreaming(kc.config, kc.partition);
    parent.net->Run(Time::Milliseconds(1));
    parent.net->Run(Time::Milliseconds(2));
    Session session(parent.net.get());
    const std::unique_ptr<Network> fork = session.Fork(session.Snapshot());
    std::vector<uint8_t> parent_state;
    std::vector<uint8_t> fork_state;
    ASSERT_TRUE(CaptureWindowCheckpoint(*parent.net, &parent_state));
    ASSERT_TRUE(CaptureWindowCheckpoint(*fork, &fork_state));
    EXPECT_GT(parent_state.size(), 0u);
    EXPECT_TRUE(parent_state == fork_state);
  }
}

class ControllerTransparency : public ::testing::TestWithParam<int> {};

// The controller-transparency matrix: every kernel, tuning off vs an
// aggressive kAuto controller (react after a single round; treat every
// window with observable sync time as shrink-worthy), produces bit-identical
// fingerprints and digests. The controller only ever changes *how fast* the
// session runs — party counts, re-sort cadence, window slicing — all of
// which are results-neutral by the session invariants this file pins.
TEST_P(ControllerTransparency, TunedRunMatchesStaticRun) {
  const KernelCase kc = AllKernels()[GetParam()];
  SCOPED_TRACE(kc.name);

  SimConfig off;
  off.kernel = kc.config;
  off.partition = kc.partition;
  RunDigest off_digest;
  const RunOutcome off_out =
      RunFatTreeScenarioConfigured(off, 1, 4, 10, 5, &off_digest);

  SimConfig tuned = off;
  tuned.tuning = TuningMode::kAuto;
  tuned.tuning_config.min_rounds = 1;
  tuned.tuning_config.ps_low = 1.0;
  tuned.tuning_config.min_window_ps = 500'000'000;  // Floor at 0.5 ms.
  RunDigest tuned_digest;
  const RunOutcome tuned_out =
      RunFatTreeScenarioConfigured(tuned, 1, 4, 10, 5, &tuned_digest);

  EXPECT_EQ(tuned_out.fingerprint, off_out.fingerprint);
  EXPECT_EQ(tuned_out.events, off_out.events);
  EXPECT_EQ(tuned_out.summary.completed, off_out.summary.completed);
  EXPECT_EQ(tuned_out.lps, off_out.lps);
  EXPECT_TRUE(tuned_digest == off_digest);
}

std::string ControllerCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ControllerTransparency,
                         ::testing::Range(0, 5), ControllerCaseName);

// Satellite: a snapshot no longer freezes the knobs. The tunable epoch and
// values ride in the USNP buffer, a fork resumes with the parent's learned
// settings, and parent and fork can then tune independently — while both
// still land bit-identical to the untouched run.
TEST(SessionFork, TuningStateSurvivesForkAndDivergesIndependently) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto);

  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  parent.net->Run(Time::Milliseconds(1));

  // "Learn" something before the snapshot: one published epoch.
  Tunables learned = parent.net->tunable_store().Get();
  learned.sched_period = 3;
  parent.net->tunable_store().Publish(learned);

  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  std::unique_ptr<Network> fork = session.Fork(snap);
  // The fork resumes with the parent's learned settings, not config defaults.
  EXPECT_EQ(fork->tunable_store().epoch(), 1u);
  EXPECT_EQ(fork->tunable_store().Get().sched_period, 3u);

  // Post-fork the two stores diverge independently.
  Tunables parent_next = parent.net->tunable_store().Get();
  parent_next.sched_period = 7;
  parent.net->tunable_store().Publish(parent_next);
  Tunables fork_next = fork->tunable_store().Get();
  fork_next.sched_period = 2;
  fork->tunable_store().Publish(fork_next);
  EXPECT_EQ(parent.net->tunable_store().Get().sched_period, 7u);
  EXPECT_EQ(fork->tunable_store().Get().sched_period, 2u);

  fork->Run(Time::Milliseconds(5));
  EXPECT_EQ(fork->kernel().window_tuning().epoch, 2u);
  EXPECT_EQ(fork->kernel().window_tuning().sched_period, 2u);
  EXPECT_EQ(fork->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(fork->kernel().session_events(), mono.events);

  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->kernel().window_tuning().sched_period, 7u);
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(parent.net->kernel().session_events(), mono.events);
}

// --- Speculative window execution ---

// The kernels that opt into speculation (indices into AllKernels()): the
// round-engine kernels barrier, unison, hybrid. Sequential has no window to
// speculate past; null-message has no barrier round to extend.
constexpr int kSpecKernels[3] = {1, 3, 4};

class SpeculationTransparency
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

// The speculation-transparency matrix: every opt-in kernel, every window
// split, speculation=off vs =auto, produces bit-identical FlowMonitor
// fingerprints and full-state digests. Speculation only ever changes *when*
// events execute relative to the wall clock — a miss rolls the window back
// to the boundary checkpoint and re-runs conservatively, a hit commits
// rounds whose event order the npub cap and deterministic tie-breaking
// already pinned.
TEST_P(SpeculationTransparency, SpeculativeRunMatchesConservative) {
  const KernelCase kc = AllKernels()[kSpecKernels[std::get<0>(GetParam())]];
  const uint32_t windows = std::get<1>(GetParam());
  SCOPED_TRACE(std::string(kc.name) + " x " + std::to_string(windows));

  SimConfig off;
  off.kernel = kc.config;
  off.partition = kc.partition;
  RunDigest off_digest;
  const RunOutcome off_out =
      RunFatTreeScenarioConfigured(off, windows, 4, 10, 5, &off_digest);

  SimConfig spec = off;
  spec.speculation = SpeculationMode::kAuto;
  RunDigest spec_digest;
  const RunOutcome spec_out =
      RunFatTreeScenarioConfigured(spec, windows, 4, 10, 5, &spec_digest);

  EXPECT_EQ(spec_out.fingerprint, off_out.fingerprint);
  EXPECT_EQ(spec_out.events, off_out.events);
  EXPECT_EQ(spec_out.summary.completed, off_out.summary.completed);
  EXPECT_EQ(spec_out.lps, off_out.lps);
  EXPECT_TRUE(spec_digest == off_digest);
}

std::string SpecCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t>>& info) {
  static const char* const names[3] = {"barrier", "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    OptInKernels, SpeculationTransparency,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values(1u, 2u, 5u)),
    SpecCaseName);

// Forced rollback: a horizon dwarfing the 3 us fat-tree lookahead drives the
// optimistic rounds far past the safe bound, so cross-LP arrivals land below
// already-advanced clocks — the window must detect the miss, restore the
// boundary checkpoint, re-run conservatively, and still land bit-identical
// to speculation=off.
TEST(SpeculationRollback, ForcedMissRollsBackAndStaysBitIdentical) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig off;
  off.kernel = k;
  RunDigest off_digest;
  const RunOutcome off_out =
      RunFatTreeScenarioConfigured(off, 2, 4, 10, 5, &off_digest);

  SimConfig spec = off;
  spec.speculation = SpeculationMode::kAuto;
  spec.trace = true;
  spec.tuning_config.spec_horizon_initial_ps = Time::Milliseconds(10).ps();

  Network net(spec);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(5);
  GenerateTraffic(net, traffic);
  net.Run(Time::Picoseconds(Time::Milliseconds(5).ps() / 2));
  net.Run(Time::Milliseconds(5));

  // The windows speculated, missed at least once, and the rollback restored
  // the boundary checkpoint (all surfaced in the per-window trace and the
  // kernel's checkpoint counters).
  const RunSummary total = net.run_trace().Cumulative();
  EXPECT_GE(total.spec_rounds, 1u);
  EXPECT_GE(total.spec_misses, 1u);
  EXPECT_GE(net.kernel().spec_checkpoint().captures(), 1u);
  EXPECT_GE(net.kernel().spec_checkpoint().restores(), 1u);

  RunDigest spec_digest = DigestOf(net);
  EXPECT_EQ(net.flow_monitor().Fingerprint(), off_out.fingerprint);
  EXPECT_EQ(net.kernel().session_events(), off_out.events);
  EXPECT_TRUE(spec_digest == off_digest);
}

// A pending ad-hoc lambda event (the progress ticker) is not representable:
// every window checkpoint capture declines, so the run stays conservative
// and matches speculation=off, and no auto-checkpoint file is written while
// the ticker is pending. A ticker-free control run proves the captures
// would otherwise happen.
TEST(SpeculationDecline, PendingTickerDeclinesCaptureAndAutoCheckpoint) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const std::string path =
      ::testing::TempDir() + "unison_decline_ckpt_test.usnp";
  std::remove(path.c_str());
  const auto run = [&](SimConfig cfg, bool ticker) {
    cfg.kernel = k;
    cfg.seed = 1;
    auto net = std::make_unique<Network>(cfg);
    FatTreeTopo topo =
        BuildFatTree(*net, 4, 10'000'000'000ULL, Time::Microseconds(3));
    net->Finalize();
    if (ticker) {
      net->EnableProgressReport(Time::Microseconds(100), [](Time, uint64_t) {});
    }
    GeneratePermutation(*net, topo.hosts, 200 * 1024, Time::Zero());
    TrafficSpec traffic;
    traffic.hosts = topo.hosts;
    traffic.bisection_bps = topo.bisection_bps;
    traffic.load = 0.1;
    traffic.duration = Time::Milliseconds(3);
    InstallFlowSources(*net, traffic);
    for (uint32_t w = 1; w <= 3; ++w) {
      net->Run(Time::Milliseconds(w));
    }
    return net;
  };

  SimConfig off;
  const std::unique_ptr<Network> conservative = run(off, true);
  SimConfig spec;
  spec.speculation = SpeculationMode::kAuto;
  EXPECT_GE(run(spec, false)->kernel().spec_checkpoint().captures(), 1u);

  spec.kernel.auto_checkpoint_every = 1;
  spec.auto_checkpoint_path = path;
  const std::unique_ptr<Network> declined = run(spec, true);
  EXPECT_EQ(declined->kernel().spec_checkpoint().captures(), 0u);
  EXPECT_EQ(declined->flow_monitor().Fingerprint(),
            conservative->flow_monitor().Fingerprint());
  EXPECT_EQ(declined->kernel().session_events(),
            conservative->kernel().session_events());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "auto-checkpoint written while a ticker is pending";
  if (f != nullptr) {
    std::fclose(f);
    std::remove(path.c_str());
  }
}

// --- Automatic resume checkpoints ---

// Satellite: auto_checkpoint_every periodically saves the session to the
// configured path mid-run; killing the process and resuming from the file
// (LoadFrom + Session::Restore) converges to the same end state as the
// uninterrupted run — and the periodic saves never perturb the parent.
TEST(SessionAutoCheckpoint, PeriodicSnapshotResumesBitIdentical) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto, 1);

  const std::string path = ::testing::TempDir() + "unison_auto_ckpt_test.usnp";
  SimConfig cfg;
  cfg.kernel = k;
  cfg.kernel.auto_checkpoint_every = 1;  // Save at every window boundary.
  cfg.auto_checkpoint_path = path;
  cfg.seed = 1;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(5);
  InstallFlowSources(net, traffic);

  net.Run(Time::Milliseconds(1));
  net.Run(Time::Milliseconds(2));

  // "Crash" here: the latest auto-save holds the 2 ms boundary.
  const SessionSnapshot snap = SessionSnapshot::LoadFrom(path);
  std::remove(path.c_str());
  EXPECT_GT(snap.size_bytes(), 0u);
  std::unique_ptr<Network> resumed = Session::Restore(snap);
  resumed->Run(Time::Milliseconds(5));
  EXPECT_EQ(resumed->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(resumed->kernel().session_events(), mono.events);

  // The parent was never perturbed by its own periodic saves.
  net.Run(Time::Milliseconds(5));
  std::remove(path.c_str());  // Runs 3..5 saved again; clean up.
  EXPECT_EQ(net.flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(net.kernel().session_events(), mono.events);
}

// Satellite: reading the session clock before Finalize is a configuration
// error with a diagnostic, not a null-kernel dereference.
TEST(SessionStateDeathTest, SessionTimeBeforeFinalizeIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig cfg;
  Network net(cfg);
  EXPECT_DEATH((void)net.session_time(), "session_time");
}

// Satellite: a corrupt element count in a snapshot fails as a Session error,
// not as an allocation sized from garbage (an uncaught std::bad_alloc).
TEST(SessionStateDeathTest, CorruptLinkCountIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  s.net->Run(Time::Milliseconds(1));
  std::vector<uint8_t> bytes = Session(s.net.get()).Snapshot().bytes();
  // The topology header is the (num_nodes, num_links) U32 pair.
  const uint32_t header[2] = {s.net->num_nodes(),
                              static_cast<uint32_t>(s.net->links().size())};
  const auto* pattern = reinterpret_cast<const uint8_t*>(header);
  auto at = std::search(bytes.begin(), bytes.end(), pattern,
                        pattern + sizeof header);
  ASSERT_NE(at, bytes.end());
  const uint32_t corrupt_links = 0xFFFFFFFFu;
  std::memcpy(&*at + sizeof(uint32_t), &corrupt_links, sizeof corrupt_links);
  const SessionSnapshot corrupt(std::move(bytes));
  EXPECT_DEATH((void)Session::Restore(corrupt), "Session:");
}

// A decoded id that would index past a live array fails as a Session error:
// the first link's endpoint set to a node that does not exist.
TEST(SessionStateDeathTest, CorruptLinkEndpointIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  s.net->Run(Time::Milliseconds(1));
  std::vector<uint8_t> bytes = Session(s.net.get()).Snapshot().bytes();
  // The (num_nodes, num_links) U32 pair is followed by the first link's
  // endpoint a.
  const uint32_t header[2] = {s.net->num_nodes(),
                              static_cast<uint32_t>(s.net->links().size())};
  const auto* pattern = reinterpret_cast<const uint8_t*>(header);
  auto at = std::search(bytes.begin(), bytes.end(), pattern,
                        pattern + sizeof header);
  ASSERT_NE(at, bytes.end());
  const uint32_t corrupt_node = 0x00FFFFFFu;
  std::memcpy(&*at + sizeof header, &corrupt_node, sizeof corrupt_node);
  const SessionSnapshot corrupt(std::move(bytes));
  EXPECT_DEATH((void)Session::Restore(corrupt), "Session:");
}

// A decoded flow id names a FlowMonitor record only by its shard and slot
// bits, so one that names no restored record must fail as a Session error
// before any event indexes the monitor with it: a TCP sender's id set to a
// shard past the configured ones.
TEST(SessionStateDeathTest, CorruptFlowIdIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  s.net->Run(Time::Microseconds(50));  // Flows still in flight.
  std::vector<uint8_t> bytes = Session(s.net.get()).Snapshot().bytes();
  // A sender's wire layout opens with its flow id, destination and size.
  const TcpSender* sender = nullptr;
  uint32_t id = 0;
  for (NodeId n = 0; n < s.net->num_nodes() && sender == nullptr; ++n) {
    for (const auto& [flow, tcp] : s.net->node(n).senders()) {
      if (sender == nullptr || flow < id) {
        sender = tcp.get();
        id = flow;
      }
    }
  }
  ASSERT_NE(sender, nullptr);
  uint8_t pattern[16];
  const uint32_t dst = sender->dst();
  const uint64_t size = s.net->flow_monitor().flow(id).bytes;
  std::memcpy(pattern, &id, 4);
  std::memcpy(pattern + 4, &dst, 4);
  std::memcpy(pattern + 8, &size, 8);
  auto at = std::search(bytes.begin(), bytes.end(), pattern, pattern + sizeof pattern);
  ASSERT_NE(at, bytes.end());
  ASSERT_GT(s.net->flow_monitor().num_shards(), 1u);
  const uint32_t corrupt_id = 0xFFFFFFF0u;  // Shard bits past every shard.
  ASSERT_FALSE(s.net->flow_monitor().Contains(corrupt_id));
  std::memcpy(&*at, &corrupt_id, sizeof corrupt_id);
  const SessionSnapshot corrupt(std::move(bytes));
  EXPECT_DEATH(
      {
        std::unique_ptr<Network> net = Session::Restore(corrupt);
        net->Run(Time::Milliseconds(2));
      },
      "Session:");
}

// A snapshot cut short anywhere — in the static section or deep in the
// dynamic one — fails as a Session error, never as a read past the buffer.
TEST(SessionStateDeathTest, TruncatedSnapshotIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  s.net->Run(Time::Milliseconds(1));
  const std::vector<uint8_t> bytes = Session(s.net.get()).Snapshot().bytes();
  constexpr size_t kCuts = 8;
  for (size_t i = 1; i <= kCuts; ++i) {
    const size_t cut = bytes.size() * i / (kCuts + 1);
    SCOPED_TRACE("cut at " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()));
    const SessionSnapshot truncated(
        std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_DEATH((void)Session::Restore(truncated), "Session:");
  }
}

// Satellite: KernelConfig::Validate rejects nonsense with a clear message.
TEST(KernelConfigValidate, RejectsBadConfigs) {
  KernelConfig ok;
  ok.type = KernelType::kUnison;
  ok.threads = 4;
  EXPECT_TRUE(ok.Validate().empty());

  KernelConfig zero_threads = ok;
  zero_threads.threads = 0;
  EXPECT_NE(zero_threads.Validate().find("threads"), std::string::npos);

  KernelConfig bad_ranks;
  bad_ranks.type = KernelType::kHybrid;
  bad_ranks.ranks = 0;
  EXPECT_NE(bad_ranks.Validate().find("ranks"), std::string::npos);

  KernelConfig huge_period = ok;
  huge_period.sched_period = KernelConfig::kMaxSchedPeriod + 1;
  EXPECT_NE(huge_period.Validate().find("sched_period"), std::string::npos);

  // The boundary value is accepted.
  KernelConfig max_period = ok;
  max_period.sched_period = KernelConfig::kMaxSchedPeriod;
  EXPECT_TRUE(max_period.Validate().empty());
}

}  // namespace
}  // namespace unison
