// Cross-kernel equivalence and kernel mechanics.
//
// The load-bearing property of the whole system: every kernel — sequential,
// barrier, null message, Unison, hybrid — must execute the same model to the
// same outcome, event for event, for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/kernel/nullmsg.h"
#include "src/kernel/unison.h"
#include "src/partition/fine_grained.h"
#include "src/partition/manual.h"
#include "src/topo/torus.h"
#include "tests/test_util.h"

namespace unison {
namespace {

RunOutcome Sequential() {
  KernelConfig k;
  k.type = KernelType::kSequential;
  return RunFatTreeScenario(k, PartitionMode::kSingle);
}

TEST(KernelEquivalence, SequentialIsDeterministic) {
  const RunOutcome a = Sequential();
  const RunOutcome b = Sequential();
  EXPECT_GT(a.events, 1000u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(KernelEquivalence, UnisonMatchesSequential) {
  const RunOutcome seq = Sequential();
  for (uint32_t threads : {1u, 2u, 4u}) {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = threads;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.events, seq.events) << "threads=" << threads;
    EXPECT_EQ(par.fingerprint, seq.fingerprint) << "threads=" << threads;
    EXPECT_GT(par.lps, 4u);
  }
}

TEST(KernelEquivalence, BarrierMatchesSequential) {
  const RunOutcome seq = Sequential();
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kManual);
  EXPECT_EQ(par.events, seq.events);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.lps, 4u);  // One LP per pod.
}

TEST(KernelEquivalence, NullMessageMatchesSequential) {
  const RunOutcome seq = Sequential();
  KernelConfig k;
  k.type = KernelType::kNullMessage;
  k.deterministic = true;
  const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kManual);
  EXPECT_EQ(par.events, seq.events);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
}

TEST(KernelEquivalence, HybridMatchesSequential) {
  const RunOutcome seq = Sequential();
  for (uint32_t ranks : {2u, 4u}) {
    KernelConfig k;
    k.type = KernelType::kHybrid;
    k.ranks = ranks;
    k.threads = 2;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.events, seq.events) << "ranks=" << ranks;
    EXPECT_EQ(par.fingerprint, seq.fingerprint) << "ranks=" << ranks;
  }
}

TEST(KernelEquivalence, UnisonSchedulingMetricsAgree) {
  const RunOutcome seq = Sequential();
  for (SchedulingMetric metric : {SchedulingMetric::kNone,
                                  SchedulingMetric::kByPendingEventCount,
                                  SchedulingMetric::kByLastRoundTime}) {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = 3;
    k.metric = metric;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.fingerprint, seq.fingerprint)
        << "metric=" << static_cast<int>(metric);
  }
}

// Owner-first claiming under skew. Every LP starts owned by worker slot 0
// (unison) or rank 0 (hybrid), so one lane's list holds every flow and the
// other lanes run only what they steal. The session then spreads half the
// LPs onto slot/rank 1 (a forced migration). Which worker runs an LP must
// never show in the results.
class SkewedClaimTest
    : public ::testing::TestWithParam<std::tuple<KernelType, uint32_t>> {};

TEST_P(SkewedClaimTest, StealingMatchesSequential) {
  const auto [type, threads] = GetParam();
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunOutcome want = RunFatTreeScenarioStreaming(seq, PartitionMode::kSingle);

  for (SchedulingMetric metric : {SchedulingMetric::kNone,
                                  SchedulingMetric::kByPendingEventCount,
                                  SchedulingMetric::kByLastRoundTime}) {
    KernelConfig k;
    k.type = type;
    k.threads = threads;
    k.ranks = 2;
    k.metric = metric;
    FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
    Kernel& kernel = s.net->kernel();
    std::vector<LpMove> all_home;
    std::vector<LpMove> spread;
    for (uint32_t lp = 0; lp < kernel.num_lps(); ++lp) {
      all_home.push_back({lp, 0});
      if (lp % 2 == 1) {
        spread.push_back({lp, 1});
      }
    }
    kernel.StageMigrations(all_home);
    s.net->Run(Time::Milliseconds(1));
    s.net->Run(Time::Milliseconds(3));

    kernel.StageMigrations(spread);
    s.net->Run(Time::Milliseconds(5));

    const RunOutcome got = OutcomeOf(*s.net);
    const int m = static_cast<int>(metric);
    EXPECT_EQ(got.events, want.events) << "metric=" << m;
    EXPECT_EQ(got.fingerprint, want.fingerprint) << "metric=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelThreads, SkewedClaimTest,
    ::testing::Combine(::testing::Values(KernelType::kUnison, KernelType::kHybrid),
                       ::testing::Values(2u, 3u, 4u)),
    [](const ::testing::TestParamInfo<SkewedClaimTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == KernelType::kUnison
                             ? "unison"
                             : "hybrid2") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

// --- LP ownership layout ---

// Cut edges whose two LPs sit in different workers' owned lists: each such
// edge's mail is pushed on one core and drained on another.
uint32_t CrossWorkerCutEdges(Network& net) {
  const auto& kernel = dynamic_cast<const UnisonKernel&>(net.kernel());
  std::vector<uint32_t> worker_of(kernel.num_lps(), UINT32_MAX);
  for (uint32_t w = 0; w < kernel.owned_lists().size(); ++w) {
    for (uint32_t lp : kernel.owned_lists()[w]) {
      worker_of[lp] = w;
    }
  }
  uint32_t cross = 0;
  for (const CutEdge& e : net.partition().cut_edges) {
    EXPECT_NE(worker_of[e.a], UINT32_MAX);
    cross += worker_of[e.a] != worker_of[e.b] ? 1 : 0;
  }
  return cross;
}

struct OwnershipCase {
  KernelType type;
  uint32_t threads;
  uint32_t ranks;
  uint32_t torus_max;    // Bound on the 16x16 torus's 512 cut links.
  uint32_t fattree_max;  // Bound on the k=8 fat-tree's 384 cut links.
};

// The partition numbers LPs by their lowest node, and the builders emit
// nodes in locality order, so contiguous owned lists keep most neighbours on
// one worker. A strided layout puts every other neighbour elsewhere: 256 of
// the torus's 512 cut links at 2 lanes, and 192 of the fat-tree's 384.
TEST(UnisonOwnership, NeighbouringLpsShareAWorker) {
  const OwnershipCase cases[] = {
      {KernelType::kUnison, 2, 1, 32, 72},
      {KernelType::kUnison, 4, 1, 64, 120},
      {KernelType::kHybrid, 2, 2, 64, 120},
  };
  for (const OwnershipCase& c : cases) {
    SCOPED_TRACE(std::string(c.type == KernelType::kUnison ? "unison" : "hybrid") +
                 " threads=" + std::to_string(c.threads));
    SimConfig cfg;
    cfg.kernel.type = c.type;
    cfg.kernel.threads = c.threads;
    cfg.kernel.ranks = c.ranks;
    cfg.partition = PartitionMode::kAuto;
    {
      Network net(cfg);
      BuildTorus2D(net, 16, 16, 10'000'000'000ULL, Time::Nanoseconds(100));
      net.Finalize();
      ASSERT_EQ(net.partition().cut_edges.size(), 512u);
      EXPECT_LE(CrossWorkerCutEdges(net), c.torus_max);
    }
    {
      Network net(cfg);
      BuildFatTree(net, 8, 100'000'000'000ULL, Time::Microseconds(3));
      net.Finalize();
      ASSERT_EQ(net.partition().cut_edges.size(), 384u);
      EXPECT_LE(CrossWorkerCutEdges(net), c.fattree_max);
    }
  }
}

// --- Kernel mechanics on synthetic events ---

TEST(KernelMechanics, GlobalEventsInterleaveDeterministically) {
  // Two LPs ping-ponging; a global event in between must execute before
  // same-timestamp node events, once, on the public LP.
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});

  auto run = [&graph](KernelType type, uint32_t threads) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = threads;
    auto kernel = MakeKernel(kc);
    const Partition part = type == KernelType::kSequential
                               ? SingleLpPartition(graph)
                               : RangePartition(graph, 2);
    kernel->Setup(graph, part);
    std::vector<int> order;
    kernel->ScheduleOnNode(0, Time::Microseconds(5), [&order] { order.push_back(1); });
    kernel->ScheduleGlobal(Time::Microseconds(5), [&order] { order.push_back(2); });
    kernel->ScheduleOnNode(1, Time::Microseconds(6), [&order] { order.push_back(3); });
    kernel->Run(Time::Milliseconds(1));
    return order;
  };

  const std::vector<int> seq = run(KernelType::kSequential, 1);
  EXPECT_EQ(seq, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(run(KernelType::kUnison, 2), seq);
}

TEST(KernelMechanics, LpScheduledGlobalAtWindowEdge) {
  // Node 0's event at 5 us schedules a global at 6 us from inside its LP —
  // the serialized public-FEL path — and 6 us is that round's LBTS (5 us +
  // the 1 us lookahead). No window computation saw the global coming, yet it
  // must run in that same round's global phase, before node 1's event
  // already pending at 6 us. The global inserts node 0's event at 7 us
  // directly. The unison round runs its global phase only when some worker
  // reports a global, so a missed report would show as an extra round here
  // (or as a race under TSan). The sequential kernel's LP batch must stop at
  // the new global too, or it runs node 1's event first.
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});

  struct Outcome {
    std::vector<int> order;
    uint64_t events = 0;
    uint64_t rounds = 0;
  };
  auto run = [&graph](KernelType type, uint32_t threads) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = threads;
    kc.ranks = 2;
    auto kernel = MakeKernel(kc);
    kernel->Setup(graph, type == KernelType::kSequential ? SingleLpPartition(graph)
                                                         : RangePartition(graph, 2));
    Outcome out;
    std::vector<int>* order = &out.order;
    Kernel* kp = kernel.get();
    kernel->ScheduleOnNode(0, Time::Microseconds(5), [order, kp] {
      order->push_back(1);
      kp->ScheduleGlobal(Time::Microseconds(6), [order, kp] {
        order->push_back(2);
        kp->ScheduleOnNode(0, Time::Microseconds(7), [order] { order->push_back(4); });
      });
    });
    kernel->ScheduleOnNode(1, Time::Microseconds(6), [order] { order->push_back(3); });
    kernel->Run(Time::Milliseconds(1));
    out.events = kernel->processed_events();
    out.rounds = kernel->rounds();
    return out;
  };

  const std::pair<KernelType, uint32_t> kernels[] = {{KernelType::kSequential, 1},
                                                     {KernelType::kUnison, 2},
                                                     {KernelType::kUnison, 4},
                                                     {KernelType::kHybrid, 2}};
  for (const auto& [type, threads] : kernels) {
    const Outcome got = run(type, threads);
    SCOPED_TRACE("type=" + std::to_string(static_cast<int>(type)) +
                 " threads=" + std::to_string(threads));
    EXPECT_EQ(got.order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(got.events, 4u);
    if (type != KernelType::kSequential) {
      // Rounds at 5 us (node 0, then the global), 6 us (node 1) and 7 us.
      EXPECT_EQ(got.rounds, 3u);
    }
  }
}

TEST(KernelMechanics, StopTimeExcludesBoundaryEvents) {
  TopoGraph graph;
  graph.num_nodes = 1;
  KernelConfig kc;
  kc.type = KernelType::kSequential;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, SingleLpPartition(graph));
  int ran = 0;
  kernel->ScheduleOnNode(0, Time::Microseconds(9), [&ran] { ++ran; });
  kernel->ScheduleOnNode(0, Time::Microseconds(10), [&ran] { ++ran; });
  kernel->ScheduleOnNode(0, Time::Microseconds(11), [&ran] { ++ran; });
  kernel->Run(Time::Microseconds(10));
  EXPECT_EQ(ran, 1);  // Only the event strictly before the stop time.
}

TEST(KernelMechanics, RequestStopHaltsEarly) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  std::atomic<int> count{0};
  // Self-rescheduling chatter on both nodes.
  std::function<void()> tick0;
  Kernel* kp = kernel.get();
  for (int i = 0; i < 1000; ++i) {
    kernel->ScheduleOnNode(0, Time::Microseconds(1 + i), [&count] { ++count; });
    kernel->ScheduleOnNode(1, Time::Microseconds(1 + i), [&count] { ++count; });
  }
  kernel->ScheduleGlobal(Time::Microseconds(50), [kp] { kp->RequestStop(); });
  kernel->Run(Time::Milliseconds(10));
  EXPECT_LT(count.load(), 2000);
  EXPECT_GT(count.load(), 0);
}

TEST(KernelMechanics, UnisonSchedulePeriodOverride) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  k.sched_period = 4;
  const RunOutcome a = RunFatTreeScenario(k, PartitionMode::kAuto);
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunOutcome b = RunFatTreeScenario(seq, PartitionMode::kSingle);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(KernelMechanics, EmptySimulationTerminates) {
  TopoGraph graph;
  graph.num_nodes = 4;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  graph.edges.push_back(TopoEdge{2, 3, Time::Microseconds(1), true});
  for (KernelType type : {KernelType::kSequential, KernelType::kUnison}) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = 2;
    auto kernel = MakeKernel(kc);
    kernel->Setup(graph, type == KernelType::kSequential ? SingleLpPartition(graph)
                                                         : FineGrainedPartition(graph));
    kernel->Run(Time::Seconds(1.0));
    EXPECT_EQ(kernel->processed_events(), 0u);
  }
}

TEST(KernelMechanics, OverflowBoxDeliversToUnwiredLpUntilRewire) {
  // Four nodes, links only 0-1 and 2-3: the fine-grained partition cuts both
  // (median delay) and yields one LP per node, with no channel between LP0
  // and LP3. A cross-LP send between them must take the locked OverflowBox,
  // and a topology change wiring 0-3 must switch later sends to a real
  // outbox. The payloads capture a unique_ptr, so every hop — outbox push,
  // overflow push, inbox drain, FEL insert — handles move-only events.
  TopoGraph graph;
  graph.num_nodes = 4;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  graph.edges.push_back(TopoEdge{2, 3, Time::Microseconds(1), true});

  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  ASSERT_EQ(kernel->num_lps(), 4u);
  ASSERT_EQ(kernel->LpOfNode(3), 3u);
  ASSERT_EQ(kernel->lp(0)->FindOutbox(3), nullptr);

  Kernel* kp = kernel.get();
  std::atomic<int> delivered{0};
  auto send_to_node3 = [kp, &delivered](Time at, int value) {
    auto payload = std::make_unique<int>(value);
    kp->ScheduleOnNode(3, at, [&delivered, payload = std::move(payload)] {
      delivered += *payload;
    });
  };

  // Executes on LP0; no outbox to LP3 exists yet, so this send can only
  // arrive through LP3's overflow box.
  kernel->ScheduleOnNode(0, Time::Microseconds(1), [&send_to_node3] {
    send_to_node3(Time::Microseconds(3), 7);
  });

  // Mid-run topology change: link 0-3 appears and the kernel rewires.
  kernel->ScheduleGlobal(Time::Microseconds(5), [kp, &graph] {
    graph.edges.push_back(TopoEdge{0, 3, Time::Microseconds(1), true});
    kp->NotifyTopologyChanged();
  });

  // After the rewire the same route rides the wired outbox fast path.
  kernel->ScheduleOnNode(0, Time::Microseconds(6), [&send_to_node3] {
    send_to_node3(Time::Microseconds(8), 100);
  });

  kernel->Run(Time::Milliseconds(1));
  EXPECT_EQ(delivered.load(), 107);
  EXPECT_NE(kernel->lp(0)->FindOutbox(3), nullptr);
}

TEST(KernelMechanics, IdleLpsAccrueNoWindowCost) {
  // Four nodes, links 0-1 and 2-3, one LP per node. One event chain
  // ping-pongs between nodes 0 and 1 for the whole run; nodes 2 and 3 never
  // hold an event below any round's window. ByLastRoundTime turns per-LP
  // timing on, so the busy LPs accrue cost and the idle ones must accrue
  // exactly none: the round skips them before any clock read.
  TopoGraph graph;
  graph.num_nodes = 4;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  graph.edges.push_back(TopoEdge{2, 3, Time::Microseconds(1), true});

  struct PingPong {
    Kernel* kernel;
    void Hop(NodeId node, Time at) {
      kernel->ScheduleOnNode(node, at, [this, node, at] {
        Hop(1 - node, at + Time::Microseconds(1));
      });
    }
  };
  for (KernelType type : {KernelType::kUnison, KernelType::kHybrid}) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = 2;
    kc.ranks = 2;
    kc.metric = SchedulingMetric::kByLastRoundTime;
    auto kernel = MakeKernel(kc);
    kernel->Setup(graph, FineGrainedPartition(graph));
    ASSERT_EQ(kernel->num_lps(), 4u);
    PingPong chain{kernel.get()};
    chain.Hop(0, Time::Microseconds(1));
    kernel->Run(Time::Microseconds(200));

    EXPECT_GT(kernel->rounds(), 100u);
    const std::vector<uint64_t>& cost = *kernel->ownership_view().lp_cost_ns;
    EXPECT_GT(cost[kernel->LpOfNode(0)] + cost[kernel->LpOfNode(1)], 0u);
    EXPECT_EQ(cost[kernel->LpOfNode(2)], 0u);
    EXPECT_EQ(cost[kernel->LpOfNode(3)], 0u);
  }
}

TEST(KernelMechanics, DisconnectedGraphRunsIndependently) {
  // Two components, no cut edges: lookahead is infinite and both LPs run to
  // the stop time without interaction.
  TopoGraph graph;
  graph.num_nodes = 2;  // No edges at all.
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  Partition part = FineGrainedPartition(graph);
  EXPECT_EQ(part.num_lps, 2u);
  EXPECT_TRUE(part.lookahead.IsMax());
  kernel->Setup(graph, part);
  std::atomic<int> ran{0};
  kernel->ScheduleOnNode(0, Time::Microseconds(1), [&ran] { ++ran; });
  kernel->ScheduleOnNode(1, Time::Microseconds(2), [&ran] { ++ran; });
  kernel->Run(Time::Seconds(1.0));
  EXPECT_EQ(ran.load(), 2);
}

}  // namespace
}  // namespace unison
