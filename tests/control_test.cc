// The tuning plane: the rebalance rule exercised on synthetic window
// segments, and the network-level closed loop (the worker count fits the
// machine at Finalize, move sets never perturb results, and tuned runs slice
// into fixed windows).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/control/controller.h"
#include "src/kernel/engine/executor_pool.h"
#include "src/net/network.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// --- Controller rules on synthetic segments ---

struct SegmentSpec {
  uint32_t rounds = 8;
  uint32_t executors = 2;   // Width of the per-round P rows.
  uint32_t resort_every = 0;  // 0 = no re-sort rounds at all.
  // Per-round processing imbalance ramps from imb_first at each re-sort to
  // imb_last just before the next (Imb = max * W / sum - 1).
  double imb_first = 0.0;
  double imb_last = 0.0;
};

// One executor gets the (1 + d) / W share of the round's processing time,
// the rest split the remainder evenly — an exact imbalance of d for W = 2.
std::vector<uint64_t> ImbalancedRow(uint32_t executors, double d) {
  const double total = 1e6 * executors;
  const double heavy = (1.0 + d) * total / executors;
  const double light = (total - heavy) / (executors - 1);
  std::vector<uint64_t> row(executors, static_cast<uint64_t>(light));
  row[0] = static_cast<uint64_t>(heavy);
  return row;
}

WindowTraceSegment MakeSegment(const SegmentSpec& spec) {
  WindowTraceSegment seg;
  seg.summary.kernel = "synthetic";
  seg.summary.executors = spec.executors;
  seg.summary.rounds = spec.rounds;
  for (uint32_t r = 0; r < spec.rounds; ++r) {
    RoundTraceRecord rec;
    rec.round = r;
    rec.resorted = spec.resort_every > 0 && r % spec.resort_every == 0;
    seg.records.push_back(rec);
    double imb = spec.imb_first;
    if (spec.resort_every >= 2) {
      const uint32_t pos = r % spec.resort_every;
      imb += (spec.imb_last - spec.imb_first) * pos / (spec.resort_every - 1);
    }
    seg.round_p.push_back(ImbalancedRow(spec.executors, imb));
  }
  return seg;
}

// A config whose thresholds are the defaults but with the round gate
// lowered, so single synthetic segments carry enough rounds.
ControllerConfig TestConfig() {
  ControllerConfig cfg;
  cfg.min_rounds = 1;
  return cfg;
}

// An ownership view over `owner`/`cost` with two executors.
OwnershipView TwoExecutorView(const std::vector<uint32_t>& owner,
                              const std::vector<uint64_t>& cost) {
  OwnershipView view;
  view.num_executors = 2;
  view.movable = true;
  view.owner_of_lp = &owner;
  view.lp_cost_ns = &cost;
  return view;
}

// A window whose mean imbalance (0.40 rising to 0.55 between re-sorts) is
// above the default rebalance threshold of 0.25.
SegmentSpec HotSpec() {
  SegmentSpec spec;
  spec.resort_every = 4;
  spec.imb_first = 0.40;
  spec.imb_last = 0.55;
  return spec;
}

// --- Rebalance rule ---

TEST(Controller, MeanRoundImbalanceAveragesUsableRounds) {
  SegmentSpec spec;
  spec.imb_first = 0.3;  // Constant 0.3 per round (no ramp without re-sorts).
  EXPECT_NEAR(Controller::MeanRoundImbalance(MakeSegment(spec)), 0.3, 1e-3);
}

TEST(Controller, RebalancePublishesLptMovesAfterPatience) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 2;
  Controller ctl(cfg);
  // Executor 0 carries 500 of 700 ns; LPT moves lp 1 over to executor 1.
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  const std::vector<uint64_t> cost = {400, 100, 100, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);

  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());  // 1 of 2.
  const std::vector<LpMove> moves = ctl.OnWindowEnd(MakeSegment(HotSpec()), view);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].lp, 1u);
  EXPECT_EQ(moves[0].to, 1u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_GT(ctl.decisions()[0].observed_imbalance, 0.25);
  // LPT makespan 400 over an ideal 350: predicted imbalance 1/7.
  EXPECT_NEAR(ctl.decisions()[0].predicted_imbalance, 400.0 * 2 / 700 - 1,
              1e-6);

  // Cooldown: the same signal cannot re-fire until it expires...
  for (uint32_t i = 0; i < cfg.rebalance_cooldown; ++i) {
    EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  }
  // ...after which the streak rebuilds from zero and fires again.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  EXPECT_EQ(ctl.decisions().size(), 2u);
}

TEST(Controller, RebalanceStaysOffWithoutAnOwnershipView) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  Controller ctl(cfg);
  // Strong imbalance — but no view, so no move set.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec())).empty());
  }
  EXPECT_TRUE(ctl.decisions().empty());
}

TEST(Controller, RebalanceSkipsBalancedWindows) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  Controller ctl(cfg);
  SegmentSpec spec;
  spec.resort_every = 4;
  spec.imb_first = 0.10;
  spec.imb_last = 0.20;  // Mean ~0.15 < rebalance_imbalance_high 0.25.
  const std::vector<uint32_t> owner = {0, 1};
  const std::vector<uint64_t> cost = {100, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view).empty());
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view).empty());
  EXPECT_TRUE(ctl.decisions().empty());
}

// --- Cost EWMA (rebalance input smoothing) ---

TEST(Controller, CostEwmaBlendsWindowCosts) {
  ControllerConfig cfg = TestConfig();
  cfg.cost_ewma_alpha = 0.5;
  Controller ctl(cfg);
  SegmentSpec spec;  // Quiet: the rule does not fire, but the EWMA updates.
  const std::vector<uint32_t> owner = {0, 1};
  std::vector<uint64_t> cost = {400, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);

  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view).empty());
  ASSERT_EQ(ctl.smoothed_costs().size(), 2u);
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[0], 400.0);  // First window: assign.
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[1], 100.0);

  cost = {100, 300};
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view).empty());
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[0], 250.0);  // 0.5*100 + 0.5*400.
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[1], 200.0);
}

TEST(Controller, RebalanceConsumesSmoothedCostsNotRawSpikes) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  cfg.cost_ewma_alpha = 0.0;  // Fully history-weighted after the first window.
  Controller ctl(cfg);
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  std::vector<uint64_t> cost = {400, 100, 100, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);

  // Establish history: lp 0 is the heavy one.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(SegmentSpec{}), view).empty());
  // A one-window spike claims lp 1 is heavy — but with alpha=0 the smoothed
  // estimate still says lp 0, so LPT keeps lp 0 in place and moves lp 1
  // (the raw costs alone would have moved lp 0 instead).
  cost = {100, 400, 100, 100};
  const std::vector<LpMove> moves = ctl.OnWindowEnd(MakeSegment(HotSpec()), view);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].lp, 1u);
  EXPECT_EQ(moves[0].to, 1u);
}

TEST(Controller, MinRoundsGateSkipsThinWindows) {
  ControllerConfig cfg = TestConfig();
  cfg.min_rounds = 8;
  cfg.rebalance_patience = 1;
  Controller ctl(cfg);
  SegmentSpec spec = HotSpec();  // Would otherwise certainly fire.
  spec.rounds = 3;
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  const std::vector<uint64_t> cost = {400, 100, 100, 100};
  EXPECT_TRUE(
      ctl.OnWindowEnd(MakeSegment(spec), TwoExecutorView(owner, cost)).empty());
  EXPECT_TRUE(ctl.decisions().empty());
}

// --- Hysteresis (rebalance_patience) ---

TEST(Controller, HysteresisDelaysRuleUntilPatienceWindows) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 3;
  Controller ctl(cfg);
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  const std::vector<uint64_t> cost = {400, 100, 100, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());  // 1 of 3.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());  // 2 of 3.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  EXPECT_EQ(ctl.decisions().size(), 1u);
}

TEST(Controller, HysteresisStreakResetsOnAQuietWindow) {
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 2;
  Controller ctl(cfg);
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  const std::vector<uint64_t> cost = {400, 100, 100, 100};
  const OwnershipView view = TwoExecutorView(owner, cost);
  SegmentSpec balanced = HotSpec();
  balanced.imb_first = 0.0;
  balanced.imb_last = 0.0;
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(balanced), view).empty());  // Reset.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());  // 1 again.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(HotSpec()), view).empty());
  EXPECT_EQ(ctl.decisions().size(), 1u);
}

TEST(Controller, QuietWindowPublishesNothing) {
  Controller ctl(TestConfig());
  const std::vector<uint32_t> owner = {0, 1};
  const std::vector<uint64_t> cost = {100, 100};
  // No re-sorts, no imbalance.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(SegmentSpec{}),
                              TwoExecutorView(owner, cost))
                  .empty());
  EXPECT_TRUE(ctl.decisions().empty());
}

// --- Network-level closed loop ---

// The executor count a session's kernel runs with, for `threads` workers
// (per rank for hybrid, over 2 ranks) under the given tuning mode.
uint32_t FinalizedExecutors(KernelType type, uint32_t threads,
                            TuningMode tuning) {
  SimConfig cfg;
  cfg.kernel.type = type;
  cfg.kernel.threads = threads;
  cfg.kernel.ranks = 2;
  cfg.tuning = tuning;
  Network net(cfg);
  BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  return net.kernel().MaxExecutors();
}

// Under tuning=auto, Finalize fits the worker count to the usable CPUs
// once; hybrid ranks share the CPUs between their lanes. Tuning off runs the
// config as given.
TEST(TuningPlane, AutoFitsWorkersToUsableCpusAtFinalize) {
  const uint32_t cpus = CountUsableCpus();
  EXPECT_EQ(FinalizedExecutors(KernelType::kUnison, cpus + 1, TuningMode::kAuto),
            cpus);
  EXPECT_EQ(FinalizedExecutors(KernelType::kHybrid, cpus + 1, TuningMode::kAuto),
            2 * std::max(1u, cpus / 2));
  EXPECT_EQ(FinalizedExecutors(KernelType::kUnison, cpus + 1, TuningMode::kOff),
            cpus + 1);
}

// The fit only ever lowers the party count: per-executor state sized from
// the config is never exceeded, and a config below the machine keeps its
// value.
TEST(TuningPlane, PartiesClampToConfigDefault) {
  EXPECT_EQ(FinalizedExecutors(KernelType::kUnison, 1, TuningMode::kAuto), 1u);
  EXPECT_EQ(FinalizedExecutors(KernelType::kHybrid, 1, TuningMode::kAuto), 2u);
}

// A move set published between windows — what Network::Run stages from a
// rebalance decision — takes effect at the next window: the kernel applies
// it before releasing workers, the summary counts it, and the session still
// lands bit-identical to an untouched run.
TEST(TuningPlane, PublishedMovesTakeEffectNextWindow) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 4;

  FatTreeScenario s = BuildFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  Kernel& kernel = s.net->kernel();
  s.net->Run(Time::Milliseconds(1));
  EXPECT_EQ(kernel.partition_map().epoch(), 0u);

  std::vector<LpMove> moves;
  for (uint32_t lp = 0; lp < kernel.num_lps(); lp += 3) {
    moves.push_back({lp, kernel.partition_map().owner(lp) + 1});
  }
  kernel.StageMigrations(moves);
  EXPECT_EQ(kernel.partition_map().epoch(), 0u);  // Nothing moves mid-session.
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(kernel.partition_map().epoch(), 1u);
  EXPECT_EQ(kernel.run_summary().migrations, moves.size());
  EXPECT_EQ(kernel.run_summary().ownership_epoch, 1u);

  s.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(kernel.run_summary().migrations, 0u);
  const RunOutcome tuned = OutcomeOf(*s.net);
  const RunOutcome reference =
      RunFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  EXPECT_EQ(tuned.fingerprint, reference.fingerprint);
  EXPECT_EQ(tuned.events, reference.events);
}

// Two hybrid ranks of one lane each: the rebalance rule moves LPs between
// ranks, and no host's worker fit can take either away, so the rule is
// eligible on every machine, a one-CPU one included.
KernelConfig TwoRankKernel() {
  KernelConfig kcfg;
  kcfg.type = KernelType::kHybrid;
  kcfg.ranks = 2;
  kcfg.threads = 1;
  return kcfg;
}

// A tuned two-rank kernel on a fat-tree scenario with a 5 ms horizon; the
// caller picks the controller settings.
std::unique_ptr<Network> BuildTunedFatTree(const ControllerConfig& tuning,
                                           uint32_t sched_period = 0) {
  SimConfig cfg;
  cfg.kernel = TwoRankKernel();
  cfg.kernel.sched_period = sched_period;
  cfg.partition = PartitionMode::kAuto;
  cfg.tuning = TuningMode::kAuto;
  cfg.tuning_config = tuning;

  auto net = std::make_unique<Network>(cfg);
  FatTreeTopo topo = BuildFatTree(*net, 4, 10'000'000'000ULL,
                                  Time::Microseconds(3));
  net->Finalize();
  GeneratePermutation(*net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(5);
  GenerateTraffic(*net, traffic);
  return net;
}

// A rebalance rule that fires on every window with re-sorts (any imbalance
// counts, no patience, no cooldown), so a tuned run moves LPs whenever the
// LPT placement of the measured costs differs from the live one.
ControllerConfig EagerRebalance() {
  ControllerConfig tuning;
  tuning.min_rounds = 1;
  tuning.rebalance_imbalance_high = -1.0;
  tuning.rebalance_patience = 1;
  tuning.rebalance_cooldown = 0;
  return tuning;
}

// Migration batches the kernel applied over a session's windows.
uint64_t MigrationBatches(Network& net) {
  uint64_t batches = 0;
  for (const WindowTraceSegment& seg : net.run_trace().segments()) {
    batches += seg.summary.migrations > 0 ? 1 : 0;
  }
  return batches;
}

// kAuto end to end: the rebalance rule moves LPs at window boundaries, the
// run slices itself into more windows than the caller asked for, and the
// result is still bit-identical to the static run.
TEST(TuningPlane, AutoTuningIsResultsNeutral) {
  const RunOutcome off = RunFatTreeScenario(TwoRankKernel(), PartitionMode::kAuto);

  ControllerConfig tuning = EagerRebalance();
  tuning.window_ps = 500'000'000;  // 0.5 ms slices.
  std::unique_ptr<Network> net = BuildTunedFatTree(tuning);
  net->Run(Time::Milliseconds(5));

  ASSERT_NE(net->controller(), nullptr);
  // The tuned run slices its horizon, so one Run() became several windows.
  EXPECT_GT(net->kernel().session_windows(), 1u);
  // The rule acted, and every published move set reached the kernel: one
  // migration batch per decision, none lost between the controller and the
  // next window.
  const size_t decisions = net->controller()->decisions().size();
  ASSERT_FALSE(net->controller()->decisions().empty());
  const uint64_t batches = MigrationBatches(*net);
  EXPECT_GT(batches, 0u);
  const bool last_staged =
      !net->kernel().partition_map().staged().empty();
  EXPECT_EQ(batches + (last_staged ? 1 : 0), decisions);

  const RunOutcome tuned = OutcomeOf(*net);
  EXPECT_EQ(tuned.fingerprint, off.fingerprint);
  EXPECT_EQ(tuned.events, off.events);
}

// With tuning on, Network::Run cuts the caller's horizon into windows of
// exactly window_ps, and the re-sort period stays the KernelConfig one.
TEST(TuningPlane, TunedRunSlicesFixedWindowsOnTheStaticResortPeriod) {
  ControllerConfig tuning = EagerRebalance();
  tuning.window_ps = 1'000'000'000;  // 1 ms.
  std::unique_ptr<Network> net = BuildTunedFatTree(tuning, /*sched_period=*/3);
  net->Run(Time::Milliseconds(5));

  EXPECT_EQ(net->kernel().session_windows(), 5u);
  ASSERT_FALSE(net->controller()->decisions().empty());
  EXPECT_GT(MigrationBatches(*net), 0u);
  ASSERT_EQ(net->run_trace().segments().size(), 5u);
  for (const WindowTraceSegment& seg : net->run_trace().segments()) {
    EXPECT_EQ(seg.summary.window_stop_ps - seg.summary.window_start_ps,
              tuning.window_ps);
    EXPECT_EQ(seg.summary.sched_period, 3u);
  }

  // Left at 0, the period is ceil(log2 n) over the LP count (§4.3).
  std::unique_ptr<Network> fallback = BuildTunedFatTree(tuning);
  fallback->Run(Time::Milliseconds(1));
  const uint32_t lps = fallback->kernel().num_lps();
  EXPECT_EQ(fallback->kernel().run_summary().sched_period,
            static_cast<uint32_t>(std::bit_width(lps - 1)));
}

}  // namespace
}  // namespace unison
