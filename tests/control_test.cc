// The live tuning plane: TunableStore epoch semantics, each controller rule
// exercised on synthetic window segments, and the network-level closed loop
// (published tunables take effect at the next window without perturbing
// results, and tuned runs slice into fixed windows).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
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
  t.parties = 3;
  store.Seed(t);
  EXPECT_EQ(store.epoch(), 0u);  // Epoch 0 == "tuning never acted".
  EXPECT_EQ(store.Get().parties, 3u);
}

TEST(TunableStore, PublishBumpsEpochAndRestoreSetsBoth) {
  TunableStore store;
  Tunables t;
  t.parties = 4;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 1u);
  t.parties = 2;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.Get().parties, 2u);

  // Snapshot restore reinstalls captured values *and* the captured epoch.
  Tunables captured;
  captured.parties = 9;
  captured.spec_horizon_ps = 123;
  store.Restore(captured, 5);
  EXPECT_EQ(store.epoch(), 5u);
  EXPECT_EQ(store.Get().parties, 9u);
  EXPECT_EQ(store.Get().spec_horizon_ps, 123);
}

// --- Controller rules on synthetic segments ---

struct SegmentSpec {
  uint32_t rounds = 8;
  uint32_t executors = 2;   // Width of the per-round P rows.
  uint32_t parties = 2;     // Kernel knob value the window ran with.
  uint64_t parked_per_round = 0;
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
  seg.summary.parties = spec.parties;
  seg.summary.rounds = spec.rounds;
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

TEST(Controller, OversubscribedAtThePartyFloorPublishesNothing) {
  TunableStore store;
  Controller ctl(TestConfig(), &store);
  SegmentSpec spec;
  spec.executors = 1;  // Already at the floor; parks persist anyway.
  spec.parties = 1;
  spec.parked_per_round = 10;
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.decisions().empty());
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
  spec.imb_last = 0.55;  // Mean imbalance > 0.25.
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

// --- Spec-horizon rule (rule 3) ---

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

// --- Hysteresis (rule_patience) ---

WindowTraceSegment MissWindow() { return SpecWindow(3, 1); }

Tunables LiveHorizon() {
  Tunables t;
  t.spec_horizon_ps = 2'000'000;
  return t;
}

TEST(Controller, HysteresisDelaysRuleUntilPatienceWindows) {
  TunableStore store;
  store.Seed(LiveHorizon());
  ControllerConfig cfg = TestConfig();
  cfg.rule_patience = 2;
  Controller ctl(cfg, &store);
  EXPECT_FALSE(ctl.OnWindowEnd(MissWindow()));  // Streak 1 of 2.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.OnWindowEnd(MissWindow()));  // Streak 2: publish.
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "spec-narrow");
}

TEST(Controller, HysteresisStreakResetsOnAQuietWindow) {
  TunableStore store;
  store.Seed(LiveHorizon());
  ControllerConfig cfg = TestConfig();
  cfg.rule_patience = 2;
  Controller ctl(cfg, &store);
  const WindowTraceSegment quiet = SpecWindow(0, 0);  // No spec signal.
  EXPECT_FALSE(ctl.OnWindowEnd(MissWindow()));
  EXPECT_FALSE(ctl.OnWindowEnd(quiet));  // Resets the streak.
  EXPECT_FALSE(ctl.OnWindowEnd(MissWindow()));  // Restarts at 1.
  EXPECT_TRUE(ctl.OnWindowEnd(MissWindow()));
  EXPECT_EQ(store.epoch(), 1u);
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
  SegmentSpec spec;  // No parks, no re-sorts, no speculation.
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
  t.parties = 1;
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(s.net->kernel().window_tuning().epoch, 1u);
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 1u);
  EXPECT_EQ(s.net->kernel().run_summary().tuning_epoch, 1u);
  EXPECT_EQ(s.net->kernel().run_summary().parties, 1u);

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

// A tuned unison kernel on a fat-tree scenario with a 5 ms horizon; the
// caller picks the controller settings.
std::unique_ptr<Network> BuildTunedFatTree(const ControllerConfig& tuning,
                                           uint32_t sched_period = 0) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
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

// kAuto end to end: parks_per_round_high = 0 makes the oversubscription rule
// fire on every eligible window until the party count reaches the floor, the
// run slices itself into more windows than the caller asked for, and the
// result is still bit-identical to the static run.
TEST(TuningPlane, AutoTuningIsResultsNeutral) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 2;

  const RunOutcome off = RunFatTreeScenario(kcfg, PartitionMode::kAuto);

  ControllerConfig tuning;
  tuning.min_rounds = 1;
  tuning.parks_per_round_high = 0.0;  // Fire on every eligible window.
  std::unique_ptr<Network> net = BuildTunedFatTree(tuning);
  net->Run(Time::Milliseconds(5));

  ASSERT_NE(net->controller(), nullptr);
  ASSERT_FALSE(net->controller()->decisions().empty());
  EXPECT_EQ(net->controller()->decisions()[0].rule, "oversubscribed");
  EXPECT_EQ(net->kernel().window_tuning().parties, 1u);
  EXPECT_GT(net->tunable_store().epoch(), 0u);
  // The tuned run slices its horizon, so one Run() became several windows.
  EXPECT_GT(net->kernel().session_windows(), 1u);

  const RunOutcome tuned = OutcomeOf(*net);
  EXPECT_EQ(tuned.fingerprint, off.fingerprint);
  EXPECT_EQ(tuned.events, off.events);
}

// With tuning on, Network::Run cuts the caller's horizon into windows of
// exactly window_ps, and the re-sort period stays the KernelConfig one
// whatever the controller publishes.
TEST(TuningPlane, TunedRunSlicesFixedWindowsOnTheStaticResortPeriod) {
  ControllerConfig tuning;
  tuning.min_rounds = 1;
  tuning.parks_per_round_high = 0.0;
  tuning.window_ps = 1'000'000'000;  // 1 ms.
  std::unique_ptr<Network> net = BuildTunedFatTree(tuning, /*sched_period=*/3);
  net->Run(Time::Milliseconds(5));

  EXPECT_EQ(net->kernel().session_windows(), 5u);
  ASSERT_EQ(net->run_trace().segments().size(), 5u);
  for (const WindowTraceSegment& seg : net->run_trace().segments()) {
    EXPECT_EQ(seg.summary.window_stop_ps - seg.summary.window_start_ps,
              tuning.window_ps);
    EXPECT_EQ(seg.summary.sched_period, 3u);
  }
  EXPECT_GT(net->tunable_store().epoch(), 0u);

  // Left at 0, the period is ceil(log2 n) over the LP count (§4.3).
  std::unique_ptr<Network> fallback = BuildTunedFatTree(tuning);
  fallback->Run(Time::Milliseconds(1));
  const uint32_t lps = fallback->kernel().num_lps();
  EXPECT_EQ(fallback->kernel().window_tuning().sched_period,
            static_cast<uint32_t>(std::bit_width(lps - 1)));
}

}  // namespace
}  // namespace unison
