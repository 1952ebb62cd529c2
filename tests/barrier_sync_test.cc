// CombiningBarrier: the fused tree barrier the round kernels synchronize on.
//
// The load-bearing claims: the tree reduction is bit-identical to the flat
// AtomicTimeMin CAS fold regardless of arrival order; a generation's reduced
// values are stable for every party until it arrives for the next generation,
// even under heavy phase skew; stop votes OR through; the adaptive spin
// budget stays inside its documented bounds when parties exceed the cores;
// parties that fit the cores spin instead of parking; and a completion runs
// exactly once per generation, after the reduction and before the release. The skew-stress
// test runs under TSan in CI, which is where barrier bugs actually die.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/kernel/engine/cpu_topology.h"
#include "tests/barrier_sync.h"
#include "src/sched/combining_barrier.h"

namespace unison {
namespace {

// Deterministic per-(generation, party) contribution so every party can
// recompute the expected reduction without shared state.
int64_t ContribMin(uint32_t gen, uint32_t party) {
  uint64_t x = (static_cast<uint64_t>(gen) << 20) ^ (party * 2654435761u);
  x ^= x >> 15;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return static_cast<int64_t>(x % 1000003);
}

uint64_t ContribCount(uint32_t gen, uint32_t party) {
  return (gen + party) % 17;
}

TEST(CombiningBarrier, SinglePartyCompletesImmediately) {
  CombiningBarrier b(1);
  for (uint32_t gen = 0; gen < 100; ++gen) {
    b.Arrive(0, 42 + gen, gen, gen % 2 ? CombiningBarrier::kStopFlag : 0);
    EXPECT_EQ(b.reduced_min(), 42 + gen);
    EXPECT_EQ(b.reduced_count(), gen);
    EXPECT_EQ(b.reduced_flags(), gen % 2 ? CombiningBarrier::kStopFlag : 0u);
  }
}

// The tree combine must equal the flat CAS fold on the same inputs — this is
// what lets the kernels swap AtomicTimeMin out without a determinism caveat.
TEST(CombiningBarrier, MinMatchesAtomicTimeMinOnRandomInputs) {
  std::mt19937_64 rng(20260807);
  for (uint32_t parties : {1u, 2u, 3u, 4u, 5u, 8u, 13u, 16u, 64u}) {
    CombiningBarrier tree(parties);
    std::vector<int64_t> inputs(parties);
    for (int round = 0; round < 20; ++round) {
      AtomicTimeMin flat;
      flat.Reset();
      for (auto& v : inputs) {
        v = static_cast<int64_t>(rng() % (1ull << 62));
      }
      std::vector<std::thread> threads;
      for (uint32_t p = 1; p < parties; ++p) {
        threads.emplace_back([&, p] {
          flat.Update(inputs[p]);
          tree.Arrive(p, inputs[p], 1, 0);
        });
      }
      flat.Update(inputs[0]);
      tree.Arrive(0, inputs[0], 1, 0);
      const int64_t tree_min = tree.reduced_min();
      const uint64_t tree_count = tree.reduced_count();
      for (auto& t : threads) {
        t.join();
      }
      EXPECT_EQ(tree_min, flat.Get());
      EXPECT_EQ(tree_count, parties);
    }
  }
}

TEST(CombiningBarrier, StopVotesOrAcrossParties) {
  constexpr uint32_t kParties = 6;
  CombiningBarrier b(kParties);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  // Generation g: party (g % kParties) votes stop; everyone must see it.
  auto body = [&](uint32_t p) {
    for (uint32_t gen = 0; gen < 200; ++gen) {
      const uint32_t flags =
          gen % kParties == p ? CombiningBarrier::kStopFlag : 0;
      b.Arrive(p, INT64_MAX, 0, flags);
      if ((b.reduced_flags() & CombiningBarrier::kStopFlag) == 0) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  for (uint32_t p = 1; p < kParties; ++p) {
    threads.emplace_back(body, p);
  }
  body(0);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
}

// The completion is the round kernels' window computation: it must run once
// per generation, see the published reduction, and finish before any party
// returns. It writes plain fields, so each party checking them after Arrive
// is a data race unless the release really orders the completion before it
// (TSan in CI). Occasional sleeps and yields vary which party completes.
TEST(CombiningBarrier, CompletionRunsOncePerGenerationBeforeRelease) {
  constexpr uint32_t kGenerations = 2000;
  struct Seen {
    CombiningBarrier* barrier = nullptr;
    uint32_t calls = 0;
    int64_t min = 0;
    uint64_t count = 0;
  };
  for (uint32_t parties : {1u, 2u, 5u}) {
    CombiningBarrier b(parties);
    Seen seen{&b};
    const CombiningBarrier::Completion complete = [](void* context) {
      Seen& s = *static_cast<Seen*>(context);
      ++s.calls;
      s.min = s.barrier->reduced_min();
      s.count = s.barrier->reduced_count();
    };
    std::atomic<uint64_t> mismatches{0};
    auto body = [&](uint32_t p) {
      std::mt19937 rng(p * 104729 + parties);
      for (uint32_t gen = 0; gen < kGenerations; ++gen) {
        if (rng() % 64 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(rng() % 50));
        } else if (rng() % 4 == 0) {
          std::this_thread::yield();
        }
        b.Arrive(p, ContribMin(gen, p), ContribCount(gen, p), 0, complete, &seen);
        int64_t want_min = INT64_MAX;
        uint64_t want_count = 0;
        for (uint32_t q = 0; q < parties; ++q) {
          want_min = std::min(want_min, ContribMin(gen, q));
          want_count += ContribCount(gen, q);
        }
        if (seen.calls != gen + 1 || seen.min != want_min || seen.count != want_count) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t p = 1; p < parties; ++p) {
      threads.emplace_back(body, p);
    }
    body(0);
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(mismatches.load(), 0u) << "parties=" << parties;
    EXPECT_EQ(seen.calls, kGenerations) << "parties=" << parties;
  }
}

// Randomized phase skew: parties sleep random microseconds between arrivals
// for thousands of generations, so arrivals interleave in every order and
// waiters both spin and park. Each party validates the full reduced triple
// after every crossing — reads happen in the window where the result must be
// stable (before that party's next arrival). EXPECT from worker threads is
// not TSan-clean, so mismatches count into an atomic checked at the end.
TEST(CombiningBarrier, RandomizedPhaseSkewStress) {
  constexpr uint32_t kParties = 8;
  constexpr uint32_t kGenerations = 1500;
  CombiningBarrier b(kParties);
  std::atomic<uint64_t> mismatches{0};

  auto expected_min = [](uint32_t gen) {
    int64_t m = INT64_MAX;
    for (uint32_t p = 0; p < kParties; ++p) {
      m = std::min(m, ContribMin(gen, p));
    }
    return m;
  };
  auto expected_count = [](uint32_t gen) {
    uint64_t c = 0;
    for (uint32_t p = 0; p < kParties; ++p) {
      c += ContribCount(gen, p);
    }
    return c;
  };

  auto body = [&](uint32_t p) {
    std::mt19937 rng(p * 7919 + 13);
    for (uint32_t gen = 0; gen < kGenerations; ++gen) {
      if (rng() % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 200));
      }
      b.Arrive(p, ContribMin(gen, p), ContribCount(gen, p),
               gen % 97 == 0 ? CombiningBarrier::kStopFlag : 0);
      const bool ok = b.reduced_min() == expected_min(gen) &&
                      b.reduced_count() == expected_count(gen) &&
                      b.reduced_flags() ==
                          (gen % 97 == 0 ? CombiningBarrier::kStopFlag : 0u);
      if (!ok) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t p = 1; p < kParties; ++p) {
    threads.emplace_back(body, p);
  }
  body(0);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  // The sleeps guarantee some crossings outlived the spin budget; the park
  // counter must have moved, and the adapted budget must respect its bounds.
  EXPECT_GE(b.spin_budget(), CombiningBarrier::kMinSpin);
  EXPECT_LE(b.spin_budget(), CombiningBarrier::kMaxSpin);
}

TEST(CombiningBarrier, SpinBudgetStaysBoundedUnderForcedParking) {
  constexpr uint32_t kParties = 4;
  // Two cores for four parties: the oversubscribed regime, where the budget
  // adapts.
  CombiningBarrier b(kParties, /*cores=*/2);
  ASSERT_FALSE(b.spins_on_idle_cores());
  // Straggler pattern: party 0 arrives ~1ms late every generation, forcing
  // the others past any spin budget into the futex. The adaptive budget must
  // walk down toward kMinSpin and never leave [kMinSpin, kMaxSpin].
  std::vector<std::thread> threads;
  for (uint32_t p = 1; p < kParties; ++p) {
    threads.emplace_back([&, p] {
      for (uint32_t gen = 0; gen < 30; ++gen) {
        b.Arrive(p);
        EXPECT_GE(b.spin_budget(), CombiningBarrier::kMinSpin);
        EXPECT_LE(b.spin_budget(), CombiningBarrier::kMaxSpin);
      }
    });
  }
  for (uint32_t gen = 0; gen < 30; ++gen) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    b.Arrive(0);
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(b.parks(), 0u);
  EXPECT_EQ(b.spin_budget(), CombiningBarrier::kMinSpin);
}

// The sibling regime: every party has a core, nobody straggles, so a waiter
// spins past each crossing instead of parking. An adaptive 16-poll budget
// parks on nearly every generation here. A crowded host can still preempt a
// party for longer than any bounded spin, so the best of three attempts
// counts; each attempt is a fresh barrier.
TEST(CombiningBarrier, SpinsWithoutParkingWhilePartiesFitTheCores) {
  const uint32_t cores =
      static_cast<uint32_t>(CpuTopology::Detect().cpus.size());
  if (cores < 2) {
    GTEST_SKIP() << "needs two usable cores";
  }
  constexpr uint32_t kParties = 2;
  constexpr uint32_t kGenerations = 20000;
  uint64_t best = UINT64_MAX;
  for (int attempt = 0; attempt < 3 && best >= kGenerations / 100; ++attempt) {
    CombiningBarrier b(kParties, cores);
    ASSERT_TRUE(b.spins_on_idle_cores());
    std::thread other([&] {
      for (uint32_t gen = 0; gen < kGenerations; ++gen) {
        b.Arrive(1);
      }
    });
    for (uint32_t gen = 0; gen < kGenerations; ++gen) {
      b.Arrive(0);
    }
    other.join();
    EXPECT_EQ(b.spin_budget(), CombiningBarrier::kIdleCoreSpin);
    best = std::min(best, b.parks());
  }
  EXPECT_LT(best, kGenerations / 100);  // Parks per generation ~ 0.
}

}  // namespace
}  // namespace unison
