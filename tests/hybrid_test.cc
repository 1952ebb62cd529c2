// Hybrid (distributed) kernel: rank/lane sweeps, structure, and equivalence.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/partition/fine_grained.h"
#include "tests/test_util.h"

namespace unison {
namespace {

class HybridSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(HybridSweepTest, MatchesSequentialForAnyRankLaneSplit) {
  const auto [ranks, lanes] = GetParam();
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunOutcome expected = RunFatTreeScenario(seq, PartitionMode::kSingle);

  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = ranks;
  k.threads = lanes;
  const RunOutcome got = RunFatTreeScenario(k, PartitionMode::kAuto);
  EXPECT_EQ(got.events, expected.events);
  EXPECT_EQ(got.fingerprint, expected.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(RankLane, HybridSweepTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Hybrid, RanksPartitionEveryLpExactlyOnce) {
  TopoGraph graph;
  graph.num_nodes = 12;
  for (NodeId i = 0; i + 1 < 12; ++i) {
    graph.edges.push_back(TopoEdge{i, i + 1, Time::Microseconds(3), true});
  }
  KernelConfig kc;
  kc.type = KernelType::kHybrid;
  kc.ranks = 3;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  EXPECT_EQ(kernel->partition_map().num_executors(), 3u);
  const auto& rank_of_lp = kernel->partition_map().owners();
  EXPECT_EQ(rank_of_lp.size(), kernel->num_lps());
  std::vector<uint32_t> counts(3, 0);
  for (uint32_t r : rank_of_lp) {
    ASSERT_LT(r, 3u);
    ++counts[r];
  }
  // Contiguous node ranges: no rank is empty for a 12-node line.
  for (uint32_t c : counts) {
    EXPECT_GT(c, 0u);
  }
}

TEST(Hybrid, MoreRanksThanLpsStillRuns) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = KernelType::kHybrid;
  kc.ranks = 6;  // More hosts than LPs: some ranks own nothing.
  kc.threads = 1;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  int ran = 0;
  kernel->ScheduleOnNode(0, Time::Microseconds(1), [&ran] { ++ran; });
  kernel->ScheduleOnNode(1, Time::Microseconds(2), [&ran] { ++ran; });
  kernel->Run(Time::Milliseconds(1));
  EXPECT_EQ(ran, 2);
}

TEST(Hybrid, LiveEventsVisibleFromGlobalEvent) {
  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = 2;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 100000, Time::Zero());
  uint64_t seen = 0;
  net.sim().ScheduleGlobal(Time::Milliseconds(1),
                           [&net, &seen] { seen = net.kernel().LiveEvents(); });
  net.Run(Time::Milliseconds(3));
  EXPECT_GT(seen, 0u);
  EXPECT_LE(seen, net.kernel().processed_events());
}

}  // namespace
}  // namespace unison
