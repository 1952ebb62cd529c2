// The live tuning plane: TunableStore epoch semantics, each controller rule
// exercised on synthetic window segments, and the network-level closed loop
// (published tunables take effect at the next window without perturbing
// results).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/control/controller.h"
#include "src/control/tunables.h"
#include "src/net/network.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// --- TunableStore ---

TEST(TunableStore, SeedDoesNotConsumeAnEpoch) {
  TunableStore store;
  Tunables t;
  t.sched_period = 7;
  t.parties = 3;
  store.Seed(t);
  EXPECT_EQ(store.epoch(), 0u);  // Epoch 0 == "tuning never acted".
  EXPECT_EQ(store.Get().sched_period, 7u);
  EXPECT_EQ(store.Get().parties, 3u);
}

TEST(TunableStore, PublishBumpsEpochAndRestoreSetsBoth) {
  TunableStore store;
  Tunables t;
  t.sched_period = 4;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 1u);
  t.sched_period = 2;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.Get().sched_period, 2u);

  // Snapshot restore reinstalls captured values *and* the captured epoch.
  Tunables captured;
  captured.sched_period = 9;
  captured.max_window_ps = 123;
  store.Restore(captured, 5);
  EXPECT_EQ(store.epoch(), 5u);
  EXPECT_EQ(store.Get().sched_period, 9u);
  EXPECT_EQ(store.Get().max_window_ps, 123);
}

// --- Controller rules on synthetic segments ---

struct SegmentSpec {
  uint32_t rounds = 8;
  uint32_t executors = 2;   // Width of the per-round P rows.
  uint32_t parties = 2;     // Kernel knob value the window ran with.
  uint32_t sched_period = 8;
  uint64_t parked_per_round = 0;
  uint32_t resort_every = 0;  // 0 = no re-sort rounds at all.
  // Per-round processing imbalance ramps from imb_first at each re-sort to
  // imb_last just before the next (Imb = max * W / sum - 1).
  double imb_first = 0.0;
  double imb_last = 0.0;
  uint64_t p_ns = 500;  // Window totals; ratio p/(p+s) drives rule 3.
  uint64_t s_ns = 500;
  int64_t window_start_ps = 0;
  int64_t window_stop_ps = 1'000'000'000;  // 1 ms span.
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
  seg.summary.parties = spec.parties;
  seg.summary.sched_period = spec.sched_period;
  seg.summary.rounds = spec.rounds;
  seg.summary.processing_ns = spec.p_ns;
  seg.summary.synchronization_ns = spec.s_ns;
  seg.summary.window_start_ps = spec.window_start_ps;
  seg.summary.window_stop_ps = spec.window_stop_ps;
  for (uint32_t r = 0; r < spec.rounds; ++r) {
    RoundTraceRecord rec;
    rec.round = r;
    rec.parked = spec.parked_per_round;
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

// A config whose thresholds are the defaults but with the round gate and the
// machine size pinned, so tests are host-independent. Patience 1 restores the
// act-on-first-window behaviour the single-segment rule tests exercise; the
// hysteresis tests below set their own patience.
ControllerConfig TestConfig() {
  ControllerConfig cfg;
  cfg.min_rounds = 1;
  cfg.cpu_limit = 64;
  cfg.rule_patience = 1;
  return cfg;
}

TEST(Controller, ResortDriftMeasuresPerStretchGrowth) {
  SegmentSpec spec;
  spec.rounds = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.1;
  spec.imb_last = 0.4;
  const double drift = Controller::ResortDrift(MakeSegment(spec));
  EXPECT_NEAR(drift, 0.3, 1e-3);  // Both stretches grow 0.1 -> 0.4.
}

TEST(Controller, ResortShrinkHalvesThePeriod) {
  TunableStore store;
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.sched_period = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.0;
  spec.imb_last = 0.5;  // Drift 0.5 > drift_shrink 0.30.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Get().sched_period, 4u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "resort-shrink");
}

TEST(Controller, ResortGrowDoublesThePeriod) {
  TunableStore store;
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.sched_period = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.2;
  spec.imb_last = 0.2;  // Drift 0 < drift_grow 0.05: re-sorting buys nothing.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().sched_period, 16u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "resort-grow");
}

TEST(Controller, OversubscribedFitsPartiesToTheMachine) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.cpu_limit = 4;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.executors = 8;  // Twice the machine.
  spec.parties = 8;
  spec.parked_per_round = 10;  // > parks_per_round_high 4.0.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().parties, 4u);  // knob * cpu_limit / executors.
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "oversubscribed");
}

TEST(Controller, AffinityFallbackAtThePartyFloor) {
  TunableStore store;
  Tunables seed;
  seed.affinity = AffinityPolicy::kCompact;
  store.Seed(seed);
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.executors = 1;  // Already at the floor; parks persist anyway.
  spec.parties = 1;
  spec.parked_per_round = 10;
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().affinity, AffinityPolicy::kNone);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "affinity-fallback");
}

TEST(Controller, WindowShrinkOnSyncBoundWindows) {
  TunableStore store;
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.p_ns = 100;
  spec.s_ns = 900;  // P/(P+S) = 0.1 < ps_low 0.35.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  // Unbounded horizon seeds from the observed window span (1 ms), then halves.
  EXPECT_EQ(store.Get().max_window_ps, 500'000'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-shrink");

  // Repeated shrink saturates at min_window_ps and stops publishing.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().max_window_ps, ctl.config().min_window_ps);
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
}

TEST(Controller, WindowGrowRevertsToUnboundedPastTheCap) {
  TunableStore store;
  Tunables seed;
  seed.max_window_ps = 600'000'000'000;  // 0.6 s, one doubling past the cap.
  store.Seed(seed);
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.p_ns = 900;
  spec.s_ns = 100;  // P/(P+S) = 0.9 > ps_high 0.70.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().max_window_ps, 0);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-grow");
}

// --- Hysteresis (rule_patience) ---

TEST(Controller, HysteresisDelaysRuleUntilPatienceWindows) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rule_patience = 2;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.p_ns = 100;
  spec.s_ns = 900;  // Window-shrink signal every window.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 2: publish.
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-shrink");
}

TEST(Controller, HysteresisStreakResetsOnAQuietWindow) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rule_patience = 2;
  Controller ctl(cfg, &store);
  SegmentSpec noisy;
  noisy.p_ns = 100;
  noisy.s_ns = 900;
  SegmentSpec quiet;  // Balanced P/S: no signal.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(noisy)));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(quiet)));  // Resets the streak.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(noisy)));  // Restarts at 1.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(noisy)));
  EXPECT_EQ(store.epoch(), 1u);
}

// --- Rebalance rule ---

TEST(Controller, MeanRoundImbalanceAveragesUsableRounds) {
  SegmentSpec spec;
  spec.imb_first = 0.3;  // Constant 0.3 per round (no ramp without re-sorts).
  EXPECT_NEAR(Controller::MeanRoundImbalance(MakeSegment(spec)), 0.3, 1e-3);
}

TEST(Controller, RebalancePublishesLptMovesAfterPatience) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 2;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.resort_every = 4;
  spec.imb_first = 0.40;
  spec.imb_last = 0.55;  // Drift 0.15: rule 2's dead band; mean imb > 0.25.
  // Executor 0 carries 500 of 700 ns; LPT moves lp 1 over to executor 1.
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  const std::vector<uint64_t> cost = {400, 100, 100, 100};
  OwnershipView view;
  view.num_executors = 2;
  view.movable = true;
  view.owner_of_lp = &owner;
  view.lp_cost_ns = &cost;

  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));  // Streak 1 of 2.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view));   // Fires.
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Get().rebalance_seq, 1u);
  ASSERT_EQ(store.Get().moves.size(), 1u);
  EXPECT_EQ(store.Get().moves[0].lp, 1u);
  EXPECT_EQ(store.Get().moves[0].to, 1u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "rebalance");
  EXPECT_GT(ctl.decisions()[0].observed_imbalance, 0.25);
  // LPT makespan 400 over an ideal 350: predicted imbalance 1/7.
  EXPECT_NEAR(ctl.decisions()[0].predicted_imbalance, 400.0 * 2 / 700 - 1,
              1e-6);

  // Cooldown: the same signal cannot re-fire until it expires...
  for (uint32_t i = 0; i < cfg.rebalance_cooldown; ++i) {
    EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  }
  // ...after which the streak rebuilds from zero and fires again.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec), view));
  EXPECT_EQ(store.Get().rebalance_seq, 2u);
}

TEST(Controller, RebalanceStaysOffWithoutAnOwnershipView) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.resort_every = 4;
  spec.imb_first = 0.40;
  spec.imb_last = 0.55;  // Strong imbalance — but no view, so no rule 4.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 0u);
}

TEST(Controller, RebalanceSkipsBalancedWindows) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.resort_every = 4;
  spec.imb_first = 0.10;
  spec.imb_last = 0.20;  // Mean ~0.15 < rebalance_imbalance_high 0.25.
  const std::vector<uint32_t> owner = {0, 1};
  const std::vector<uint64_t> cost = {100, 100};
  OwnershipView view;
  view.num_executors = 2;
  view.movable = true;
  view.owner_of_lp = &owner;
  view.lp_cost_ns = &cost;
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  EXPECT_EQ(store.epoch(), 0u);
}

// --- Cost EWMA (rebalance input smoothing) ---

TEST(Controller, CostEwmaBlendsWindowCosts) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.cost_ewma_alpha = 0.5;
  Controller ctl(cfg, &store);
  SegmentSpec spec;  // Quiet: no rule fires, but the estimator still updates.
  const std::vector<uint32_t> owner = {0, 1};
  std::vector<uint64_t> cost = {400, 100};
  OwnershipView view;
  view.num_executors = 2;
  view.movable = true;
  view.owner_of_lp = &owner;
  view.lp_cost_ns = &cost;

  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  ASSERT_EQ(ctl.smoothed_costs().size(), 2u);
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[0], 400.0);  // First window: assign.
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[1], 100.0);

  cost = {100, 300};
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec), view));
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[0], 250.0);  // 0.5*100 + 0.5*400.
  EXPECT_DOUBLE_EQ(ctl.smoothed_costs()[1], 200.0);
}

TEST(Controller, RebalanceConsumesSmoothedCostsNotRawSpikes) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.rebalance_patience = 1;
  cfg.cost_ewma_alpha = 0.0;  // Fully history-weighted after the first window.
  Controller ctl(cfg, &store);
  SegmentSpec quiet;
  SegmentSpec hot;
  hot.resort_every = 4;
  hot.imb_first = 0.40;
  hot.imb_last = 0.55;  // Mean imbalance above the rebalance threshold.
  const std::vector<uint32_t> owner = {0, 0, 1, 1};
  std::vector<uint64_t> cost = {400, 100, 100, 100};
  OwnershipView view;
  view.num_executors = 2;
  view.movable = true;
  view.owner_of_lp = &owner;
  view.lp_cost_ns = &cost;

  // Establish history: lp 0 is the heavy one.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(quiet), view));
  // A one-window spike claims lp 1 is heavy — but with alpha=0 the smoothed
  // estimate still says lp 0, so LPT keeps lp 0 in place and moves lp 1
  // (the raw costs alone would have moved lp 0 instead).
  cost = {100, 400, 100, 100};
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(hot), view));
  ASSERT_EQ(store.Get().moves.size(), 1u);
  EXPECT_EQ(store.Get().moves[0].lp, 1u);
  EXPECT_EQ(store.Get().moves[0].to, 1u);
}

// --- Spec-horizon rule (rule 5) ---

WindowTraceSegment SpecWindow(uint32_t spec_rounds, uint32_t spec_misses) {
  WindowTraceSegment seg = MakeSegment(SegmentSpec{});  // Otherwise quiet.
  seg.summary.spec_rounds = spec_rounds;
  seg.summary.spec_misses = spec_misses;
  return seg;
}

TEST(Controller, SpecNarrowHalvesHorizonOnMissWindows) {
  TunableStore store;
  Tunables seed;
  seed.spec_horizon_ps = 2'000'000;
  store.Seed(seed);
  Controller ctl(TestConfig(), &store);

  EXPECT_TRUE(ctl.OnWindowEnd(SpecWindow(3, 1)));
  EXPECT_EQ(store.Get().spec_horizon_ps, 1'000'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "spec-narrow");

  // Repeated misses saturate at the floor, then stop publishing.
  EXPECT_TRUE(ctl.OnWindowEnd(SpecWindow(3, 1)));
  EXPECT_TRUE(ctl.OnWindowEnd(SpecWindow(3, 1)));
  EXPECT_EQ(store.Get().spec_horizon_ps, ctl.config().spec_horizon_min_ps);
  EXPECT_FALSE(ctl.OnWindowEnd(SpecWindow(3, 1)));
}

TEST(Controller, SpecWidenDoublesHorizonOnCleanSpecWindows) {
  TunableStore store;
  Tunables seed;
  seed.spec_horizon_ps = 2'000'000;
  store.Seed(seed);
  ControllerConfig cfg = TestConfig();
  cfg.spec_horizon_max_ps = 4'000'000;
  Controller ctl(cfg, &store);

  EXPECT_TRUE(ctl.OnWindowEnd(SpecWindow(4, 0)));
  EXPECT_EQ(store.Get().spec_horizon_ps, 4'000'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "spec-widen");

  // At the cap the rule goes quiet; and a window that never speculated is no
  // signal in either direction.
  EXPECT_FALSE(ctl.OnWindowEnd(SpecWindow(4, 0)));
  EXPECT_FALSE(ctl.OnWindowEnd(SpecWindow(0, 0)));
  EXPECT_EQ(store.Get().spec_horizon_ps, 4'000'000);
}

TEST(Controller, SpecRuleStaysOffWithoutALiveHorizon) {
  TunableStore store;  // No seed: horizon 0 = speculation off this session.
  Controller ctl(TestConfig(), &store);
  EXPECT_FALSE(ctl.OnWindowEnd(SpecWindow(3, 2)));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.decisions().empty());
}

TEST(Controller, MinRoundsGateSkipsThinWindows) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.min_rounds = 8;
  Controller ctl(cfg, &store);
  SegmentSpec spec;
  spec.rounds = 3;
  spec.parked_per_round = 100;  // Would otherwise certainly fire rule 1.
  spec.parties = 8;
  spec.executors = 8;
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.decisions().empty());
}

TEST(Controller, QuietWindowPublishesNothing) {
  TunableStore store;
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;  // Balanced P/S, no parks, no re-sorts.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 0u);
}

// --- Network-level closed loop ---

// A mid-session Publish takes effect at the next window: the kernel samples
// the store before releasing workers, shrinks its party count, and the
// session still lands bit-identical to an untouched run (thread-count
// invariance + window-slicing neutrality).
TEST(TuningPlane, PublishedTunablesTakeEffectNextWindow) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 4;

  FatTreeScenario s = BuildFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  s.net->Run(Time::Milliseconds(1));
  EXPECT_EQ(s.net->kernel().window_tuning().epoch, 0u);
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 4u);

  Tunables t = s.net->tunable_store().Get();
  t.sched_period = 1;
  t.parties = 1;
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(s.net->kernel().window_tuning().epoch, 1u);
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 1u);
  EXPECT_EQ(s.net->kernel().window_tuning().sched_period, 1u);
  EXPECT_EQ(s.net->kernel().run_summary().tuning_epoch, 1u);

  s.net->Run(Time::Milliseconds(5));
  const RunOutcome tuned = OutcomeOf(*s.net);
  const RunOutcome reference =
      RunFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  EXPECT_EQ(tuned.fingerprint, reference.fingerprint);
  EXPECT_EQ(tuned.events, reference.events);
}

// Party values above the config default are clamped (per-executor state is
// sized at Finalize), and 0 means "keep the default".
TEST(TuningPlane, PartiesClampToConfigDefault) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 2;

  FatTreeScenario s = BuildFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  Tunables t = s.net->tunable_store().Get();
  t.parties = 16;  // Above the config default of 2.
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(1));
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 2u);

  t.parties = 0;  // Keep the default.
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 2u);
}

// kAuto end to end: an aggressive controller config guarantees at least one
// window-shrink decision (it fires whenever any barrier time is observed, and
// patience 1 lets the first eligible window publish it), the run slices
// itself into more windows than the caller asked for, and the result is still
// bit-identical to the static run.
TEST(TuningPlane, AutoTuningIsResultsNeutral) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 2;

  const RunOutcome off = RunFatTreeScenario(kcfg, PartitionMode::kAuto);

  SimConfig cfg;
  cfg.kernel = kcfg;
  cfg.partition = PartitionMode::kAuto;
  cfg.tuning = TuningMode::kAuto;
  cfg.tuning_config.min_rounds = 1;
  cfg.tuning_config.ps_low = 1.0;  // Shrink on every window with sync time.
  cfg.tuning_config.min_window_ps = 500'000'000;  // Floor at 0.5 ms.
  cfg.tuning_config.rule_patience = 1;

  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10'000'000'000ULL,
                                  Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(5);
  GenerateTraffic(net, traffic);
  net.Run(Time::Milliseconds(5));

  ASSERT_NE(net.controller(), nullptr);
  EXPECT_FALSE(net.controller()->decisions().empty());
  bool shrank = false;
  for (const Controller::Decision& d : net.controller()->decisions()) {
    shrank = shrank || d.rule.find("window-shrink") != std::string::npos;
  }
  EXPECT_TRUE(shrank);
  EXPECT_GT(net.tunable_store().epoch(), 0u);
  // The controller bounded the horizon, so one Run() became several windows.
  EXPECT_GT(net.kernel().session_windows(), 1u);

  const RunOutcome tuned = OutcomeOf(net);
  EXPECT_EQ(tuned.fingerprint, off.fingerprint);
  EXPECT_EQ(tuned.events, off.events);
}

}  // namespace
}  // namespace unison
