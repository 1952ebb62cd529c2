// Profiler plumbing: per-executor, per-round and per-LP records.
#include <gtest/gtest.h>

#include <string>

#include "src/stats/profiler.h"
#include "tests/test_util.h"

namespace unison {
namespace {

TEST(Profiler, AccumulatesExecutorPhases) {
  Profiler p;
  p.enabled = true;
  p.BeginRun(3);
  p.executor(0).processing_ns = 100;
  p.executor(1).synchronization_ns = 50;
  p.executor(2).messaging_ns = 25;
  EXPECT_EQ(p.TotalProcessingNs(), 100u);
  EXPECT_EQ(p.TotalSyncNs(), 50u);
  EXPECT_EQ(p.TotalMessagingNs(), 25u);
}

TEST(Profiler, RoundRecordsGrowPerRound) {
  Profiler p;
  p.enabled = true;
  p.per_round = true;
  p.BeginRun(2);
  p.BeginRound();
  p.AddRoundProcessing(0, 0, 10);
  p.AddRoundSync(1, 0, 20);
  p.BeginRound();
  p.AddRoundProcessing(1, 1, 30);
  EXPECT_EQ(p.rounds(), 2u);
  ASSERT_EQ(p.round_processing_ns().size(), 2u);
  EXPECT_EQ(p.round_processing_ns()[0][0], 10u);
  EXPECT_EQ(p.round_sync_ns()[0][1], 20u);
  EXPECT_EQ(p.round_processing_ns()[1][1], 30u);
  // Executors that recorded nothing for a round read as zero in the
  // round-major view (rows are padded, not ragged).
  EXPECT_EQ(p.round_processing_ns()[1][0], 0u);
  EXPECT_EQ(p.round_sync_ns()[1][0], 0u);
}

TEST(Profiler, RoundWritesAccumulateIntoSameSlot) {
  // Executors add several deltas against the same (executor, round) key —
  // e.g. the three barrier waits of one Unison round — and the slot sums them.
  Profiler p;
  p.enabled = true;
  p.per_round = true;
  p.BeginRun(1);
  p.BeginRound();
  p.AddRoundSync(0, 0, 5);
  p.AddRoundSync(0, 0, 7);
  p.AddRoundProcessing(0, 0, 11);
  p.AddRoundProcessing(0, 0, 13);
  EXPECT_EQ(p.round_sync_ns()[0][0], 12u);
  EXPECT_EQ(p.round_processing_ns()[0][0], 24u);
}

TEST(Profiler, MergedLpRoundsSortedByRoundThenLp) {
  Profiler p;
  p.enabled = true;
  p.per_lp = true;
  p.BeginRun(2);
  p.AddLpRound(0, {2, 1, 5, 5, 500});
  p.AddLpRound(1, {1, 3, 2, 2, 200});
  p.AddLpRound(0, {1, 0, 1, 1, 100});
  const auto merged = p.MergedLpRounds();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].round, 1u);
  EXPECT_EQ(merged[0].lp, 0u);
  EXPECT_EQ(merged[1].round, 1u);
  EXPECT_EQ(merged[1].lp, 3u);
  EXPECT_EQ(merged[2].round, 2u);
}

// Every round kernel fills the P/S/M totals and the per-LP rows the cost
// model and heatmaps consume: unison (2 threads), hybrid (2 ranks x 2 lanes)
// and barrier (one rank per pod).
// The parameter is the KernelType value.
class ProfilerRoundKernel : public ::testing::TestWithParam<int> {};

TEST_P(ProfilerRoundKernel, RunPopulatesAllPhases) {
  KernelConfig k;
  k.type = static_cast<KernelType>(GetParam());
  k.threads = 2;
  k.ranks = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.partition =
      k.type == KernelType::kBarrier ? PartitionMode::kManual : PartitionMode::kAuto;
  cfg.profile = true;
  cfg.profile_per_round = true;
  cfg.profile_per_lp = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  if (cfg.partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));

  Profiler& p = net.profiler();
  ASSERT_EQ(p.executors().size(), k.type == KernelType::kUnison ? 2u : 4u);
  EXPECT_GT(p.TotalProcessingNs(), 0u);
  EXPECT_GT(p.TotalSyncNs(), 0u);
  EXPECT_GT(p.rounds(), 0u);
  EXPECT_EQ(p.rounds(), net.kernel().rounds());
  const auto merged = p.MergedLpRounds();
  EXPECT_FALSE(merged.empty());
  uint64_t trace_events = 0;
  for (const auto& c : merged) {
    trace_events += c.events;
  }
  // The per-LP trace accounts for every event executed in phase 1; global
  // events (none here) are the only exception.
  EXPECT_EQ(trace_events, net.kernel().processed_events());
}

std::string RoundKernelName(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(RoundKernels, ProfilerRoundKernel,
                         ::testing::Values(static_cast<int>(KernelType::kUnison),
                                           static_cast<int>(KernelType::kHybrid),
                                           static_cast<int>(KernelType::kBarrier)),
                         RoundKernelName);

// The accounting invariant behind Figs. 5b/9b: summing an executor's
// per-round P/S/M rows reproduces its end-of-run totals. PhaseAccountant
// routes each closed interval's exact delta into both the executor
// accumulator and the per-round matrix in the same call, so this holds with
// equality — by construction, for every kernel on the engine. A regression
// here means a phase's time stopped reaching the per-round matrix (the old
// worker-0 phase-2 undercount) or is counted twice.
void CheckRoundRowsSumToTotals(const Profiler& p, uint32_t executors) {
  const auto rp = p.round_processing_ns();
  const auto rs = p.round_sync_ns();
  const auto rm = p.round_messaging_ns();
  ASSERT_EQ(rp.size(), p.rounds());
  ASSERT_EQ(rs.size(), p.rounds());
  ASSERT_EQ(rm.size(), p.rounds());
  std::vector<uint64_t> p_sum(executors, 0);
  std::vector<uint64_t> s_sum(executors, 0);
  std::vector<uint64_t> m_sum(executors, 0);
  for (const auto& row : rp) {
    ASSERT_EQ(row.size(), executors);
    for (uint32_t w = 0; w < executors; ++w) {
      p_sum[w] += row[w];
    }
  }
  for (const auto& row : rs) {
    for (uint32_t w = 0; w < executors; ++w) {
      s_sum[w] += row[w];
    }
  }
  for (const auto& row : rm) {
    ASSERT_EQ(row.size(), executors);
    for (uint32_t w = 0; w < executors; ++w) {
      m_sum[w] += row[w];
    }
  }
  for (uint32_t w = 0; w < executors; ++w) {
    EXPECT_EQ(p_sum[w], p.executors()[w].processing_ns) << "executor " << w;
    EXPECT_EQ(s_sum[w], p.executors()[w].synchronization_ns) << "executor " << w;
    EXPECT_EQ(m_sum[w], p.executors()[w].messaging_ns) << "executor " << w;
  }
}

void RunAndCheckRoundRows(const KernelConfig& k, PartitionMode partition,
                          uint32_t executors) {
  SimConfig cfg;
  cfg.kernel = k;
  cfg.partition = partition;
  cfg.profile = true;
  cfg.profile_per_round = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));
  ASSERT_EQ(net.profiler().executors().size(), executors);
  CheckRoundRowsSumToTotals(net.profiler(), executors);
}

TEST(Profiler, UnisonRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  RunAndCheckRoundRows(k, PartitionMode::kAuto, 2);
}

TEST(Profiler, HybridRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = 2;
  k.threads = 2;  // 2 ranks x 2 lanes = 4 executors.
  RunAndCheckRoundRows(k, PartitionMode::kAuto, 4);
}

TEST(Profiler, BarrierRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  RunAndCheckRoundRows(k, PartitionMode::kManual, 4);  // One rank per pod.
}

TEST(Profiler, NullMessageRoundRowsSumToExecutorTotals) {
  // "Rounds" are LP-local iterations for CMB, so row counts are ragged
  // across executors; the invariant still holds row-sum by row-sum.
  KernelConfig k;
  k.type = KernelType::kNullMessage;
  k.deterministic = true;
  RunAndCheckRoundRows(k, PartitionMode::kManual, 4);
}

TEST(Profiler, PhaseTimesBoundedByWallTime) {
  // Each executor's P + S + M is a set of disjoint wall-clock segments nested
  // inside Run(), so it can never exceed the run's wall time (small slack for
  // clock reads landing across the FinishRun timestamp).
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.profile = true;
  cfg.profile_per_round = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));

  const RunSummary& summary = net.kernel().run_summary();
  ASSERT_GT(summary.wall_ns, 0u);
  const uint64_t slack = summary.wall_ns / 20 + 1000000;  // 5% + 1ms
  for (const ExecutorPhaseStats& e : net.profiler().executors()) {
    EXPECT_LE(e.processing_ns + e.synchronization_ns + e.messaging_ns,
              summary.wall_ns + slack);
  }
}

TEST(Profiler, SequentialRunAccountsAllEventsToWorkerZero) {
  KernelConfig k;
  k.type = KernelType::kSequential;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.profile = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));
  EXPECT_EQ(net.profiler().executor(0).events, net.kernel().processed_events());
  EXPECT_GT(net.profiler().executor(0).processing_ns, 0u);
}

}  // namespace
}  // namespace unison
