// Load-adaptive scheduling machinery: LPT bounds and the barrier primitives.
// The executor pool that replaced the worker team lives in engine_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/core/rng.h"
#include "tests/barrier_sync.h"
#include "src/sched/lpt.h"

namespace unison {
namespace {

TEST(Lpt, SortIsDescendingAndStable) {
  const std::vector<uint64_t> cost = {5, 9, 5, 1, 9};
  const auto order = SortByCostDescending(cost);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 4, 0, 2, 3}));
}

TEST(Lpt, TiedCostsBreakByAscendingId) {
  // The order must be a pure function of the cost vector: ties resolve to
  // ascending id regardless of how the input happens to be arranged, so
  // repeated runs with identical costs claim LPs in the same order.
  const std::vector<uint64_t> cost = {5, 7, 5, 7};
  EXPECT_EQ(SortByCostDescending(cost), (std::vector<uint32_t>{1, 3, 0, 2}));

  const std::vector<uint64_t> uniform = {3, 3, 3, 3, 3};
  EXPECT_EQ(SortByCostDescending(uniform), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Lpt, MakespanSmallCases) {
  // Jobs {5,4,3,3,3} on 2 machines: LPT gives {5,3,3}=11 vs {4,3}=7 -> wait,
  // greedy: 5->A, 4->B, 3->B(7), 3->A(8), 3->B(10) => makespan 10.
  const std::vector<uint64_t> cost = {5, 4, 3, 3, 3};
  EXPECT_EQ(ListScheduleMakespan(cost, SortByCostDescending(cost), 2), 10u);
  EXPECT_EQ(OptimalMakespan(cost, 2), 9u);  // {5,4} vs {3,3,3}.
}

TEST(Lpt, SingleWorkerIsSum) {
  const std::vector<uint64_t> cost = {3, 1, 4, 1, 5};
  EXPECT_EQ(ListScheduleMakespan(cost, SortByCostDescending(cost), 1), 14u);
}

TEST(Lpt, AssignmentCoversEveryJob) {
  const std::vector<uint64_t> cost = {8, 7, 6, 5, 4, 3, 2, 1};
  std::vector<uint32_t> assignment;
  const uint64_t makespan =
      ListScheduleMakespan(cost, SortByCostDescending(cost), 3, &assignment);
  ASSERT_EQ(assignment.size(), cost.size());
  std::vector<uint64_t> load(3, 0);
  for (size_t i = 0; i < cost.size(); ++i) {
    ASSERT_LT(assignment[i], 3u);
    load[assignment[i]] += cost[i];
  }
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), makespan);
}

// Graham's bound: LPT makespan <= (4/3 - 1/(3m)) * OPT.
class LptBoundTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LptBoundTest, WithinGrahamBound) {
  const auto [workers, instance] = GetParam();
  Rng rng(1000 + instance, workers);
  std::vector<uint64_t> cost(6 + rng.NextU64Below(5));
  for (auto& c : cost) {
    c = 1 + rng.NextU64Below(50);
  }
  const uint64_t lpt = ListScheduleMakespan(cost, SortByCostDescending(cost), workers);
  const uint64_t opt = OptimalMakespan(cost, workers);
  EXPECT_GE(lpt, opt);
  const double bound = (4.0 / 3.0 - 1.0 / (3.0 * workers));
  EXPECT_LE(static_cast<double>(lpt), bound * static_cast<double>(opt) + 1e-9)
      << "jobs=" << cost.size() << " workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LptBoundTest,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Range(0, 25)));

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier b(1);
  for (int i = 0; i < 1000; ++i) {
    b.Arrive();
  }
}

TEST(SpinBarrier, RoundTripsStayAligned) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        barrier.Arrive();
        // Between barriers, the counter must be an exact multiple.
        if (counter.load() < (r + 1) * kThreads) {
          failed = true;
        }
        barrier.Arrive();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

TEST(AtomicTimeMin, ReducesConcurrently) {
  AtomicTimeMin m;
  m.Reset();
  EXPECT_EQ(m.Get(), INT64_MAX);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 1000; i >= 0; --i) {
        m.Update(static_cast<int64_t>(t) * 10000 + i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(m.Get(), 0);
}

}  // namespace
}  // namespace unison
