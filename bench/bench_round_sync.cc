// Round-synchronization microbenchmark: flat barrier + CAS min-reduction vs
// the combining-tree barrier with the fused reduction, across party counts.
//
// Each generation models one kernel round boundary. The flat protocol is what
// the round kernels shipped with before the tree: every party CASes its
// partial minimum into one AtomicTimeMin line, crosses a SpinBarrier so the
// coordinator can read the reduced value, then crosses it again so the
// coordinator's Reset() cannot race the next generation's updates — two full
// crossings plus a contended CAS line per round. The tree protocol is a
// single CombiningBarrier::Arrive carrying {min, count, flags}; the release
// broadcast publishes the reduced values, so there is no second crossing and
// no global CAS line at all.
//
// Every generation's reduced minimum is checked against a serially computed
// reference on both paths; a mismatch fails the bench (exit 1). Timings are
// reported honestly for whatever machine this runs on. The tree barrier gets
// the visible core count, as the kernels give it: rows with parties <= cores
// spin across crossings; rows with more parties than cores take the adaptive
// path, where most crossings park in the futex and the numbers measure the
// scheduler more than the barrier. So the pass criterion is correctness, not
// speedup; the host block in the JSON (cores, CPU model, build type, git
// sha) tells consumers which regime produced the numbers.
//
// The idle_cores object reports parks per generation for 2 parties (1 on a
// one-core host) with no straggler. It should be ~0; the perf gate bounds it
// to catch a barrier that parks while cores sit idle.
//
// With --trace=PATH, additionally runs a small traced Unison simulation
// (k=4 fat-tree, 4 workers) and writes its run trace to PATH so CI can
// validate the barrier_ns/parked fields end to end with a real JSON parser.
//
// Emits BENCH_round_sync.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "tests/barrier_sync.h"
#include "src/sched/combining_barrier.h"

using namespace unison;
using namespace unison::bench;

namespace {

// Deterministic per-(generation, party) contribution; mixes well so the
// minimum lands on a different party every generation.
int64_t Contrib(uint32_t gen, uint32_t party) {
  uint64_t x = (static_cast<uint64_t>(gen) << 20) ^ (party * 2654435761u);
  x ^= x >> 15;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return static_cast<int64_t>(x % 1000000007);
}

std::vector<int64_t> ExpectedMins(uint32_t parties, uint32_t gens) {
  std::vector<int64_t> expected(gens);
  for (uint32_t gen = 0; gen < gens; ++gen) {
    int64_t m = INT64_MAX;
    for (uint32_t p = 0; p < parties; ++p) {
      m = std::min(m, Contrib(gen, p));
    }
    expected[gen] = m;
  }
  return expected;
}

struct SyncResult {
  double ns_per_gen = 0;
  uint64_t mismatches = 0;
  uint64_t parks = 0;        // Tree only.
  uint32_t spin_budget = 0;  // Tree only.
};

// Spawns parties-1 helper threads (party 0 is the caller, as in the kernels).
// Times the caller's loop.
template <typename Body>
SyncResult RunParties(uint32_t parties, uint32_t gens, const Body& body) {
  std::vector<std::thread> threads;
  std::vector<uint64_t> mismatches(parties, 0);
  for (uint32_t p = 1; p < parties; ++p) {
    threads.emplace_back([&, p] { mismatches[p] = body(p); });
  }
  const uint64_t t0 = Profiler::NowNs();
  mismatches[0] = body(0);
  const uint64_t dt = Profiler::NowNs() - t0;
  for (auto& t : threads) {
    t.join();
  }
  SyncResult out;
  out.ns_per_gen = static_cast<double>(dt) / static_cast<double>(gens);
  for (uint64_t m : mismatches) {
    out.mismatches += m;
  }
  return out;
}

SyncResult RunFlat(uint32_t parties, uint32_t gens) {
  const std::vector<int64_t> expected = ExpectedMins(parties, gens);
  SpinBarrier barrier(parties);
  AtomicTimeMin min;
  min.Reset();
  return RunParties(parties, gens, [&](uint32_t p) -> uint64_t {
    uint64_t bad = 0;
    for (uint32_t gen = 0; gen < gens; ++gen) {
      min.Update(Contrib(gen, p));
      barrier.Arrive();  // Crossing 1: all updates are in.
      if (p == 0) {
        bad += min.Get() != expected[gen] ? 1 : 0;
        min.Reset();
      }
      barrier.Arrive();  // Crossing 2: Reset cannot race gen+1's updates.
    }
    return bad;
  });
}

SyncResult RunTree(uint32_t parties, uint32_t cores, uint32_t gens) {
  const std::vector<int64_t> expected = ExpectedMins(parties, gens);
  CombiningBarrier barrier(parties, cores);
  SyncResult out =
      RunParties(parties, gens, [&](uint32_t p) -> uint64_t {
        uint64_t bad = 0;
        for (uint32_t gen = 0; gen < gens; ++gen) {
          barrier.Arrive(p, Contrib(gen, p), 1, 0);
          // Every party may read the reduced values, not just the
          // coordinator — they stay valid until this party's next arrival.
          bad += barrier.reduced_min() != expected[gen] ? 1 : 0;
          bad += barrier.reduced_count() != parties ? 1 : 0;
        }
        return bad;
      });
  out.parks = barrier.parks();
  out.spin_budget = barrier.spin_budget();
  return out;
}

void RunTracedSimulation(const std::string& path) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 4;
  cfg.seed = 1;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(1));
  if (net.run_trace().WriteJsonFile(path) &&
      net.run_trace().WriteCsvFile(path + ".csv")) {
    std::printf("[trace] wrote %s (+.csv)\n", path.c_str());
  } else {
    std::fprintf(stderr, "[trace] FAILED to write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string gens_arg =
      GetOpt(argc, argv, "--gens", quick ? "2000" : "20000");
  const uint32_t gens = static_cast<uint32_t>(std::stoul(gens_arg));
  const std::string trace_path = GetOpt(argc, argv, "--trace", "");

  const uint32_t cores = CountUsableCpus();
  std::printf("Round synchronization: flat SpinBarrier+AtomicTimeMin (2 "
              "crossings + CAS line) vs\ncombining tree (1 fused crossing), "
              "%u generations per config, %u cores visible\n\n",
              gens, cores);

  const std::vector<uint32_t> party_counts = {1, 2, 4, 8, 16};
  struct Row {
    uint32_t parties;
    SyncResult flat;
    SyncResult tree;
  };
  std::vector<Row> rows;
  uint64_t mismatches = 0;
  Table t({"parties", "flat ns/gen", "tree ns/gen", "flat/tree", "tree parks",
           "spin budget"});
  for (const uint32_t parties : party_counts) {
    Row row{parties, RunFlat(parties, gens), RunTree(parties, cores, gens)};
    mismatches += row.flat.mismatches + row.tree.mismatches;
    rows.push_back(row);
    t.Row({Fmt("%u", parties), Fmt("%.0f", row.flat.ns_per_gen),
           Fmt("%.0f", row.tree.ns_per_gen),
           Fmt("%.2fx", row.tree.ns_per_gen == 0
                            ? 0.0
                            : row.flat.ns_per_gen / row.tree.ns_per_gen),
           Fmt("%llu", static_cast<unsigned long long>(row.tree.parks)),
           Fmt("%u", row.tree.spin_budget)});
  }
  t.Print();

  // Parties that fit the cores, no straggler: crossings should not park.
  const uint32_t idle_parties = std::min(2u, cores);
  const SyncResult idle = RunTree(idle_parties, cores, gens);
  mismatches += idle.mismatches;
  const double idle_parks_per_gen =
      static_cast<double>(idle.parks) / static_cast<double>(gens);
  std::printf("\nIdle cores (tree, %u parties on %u cores): %.0f ns/gen, "
              "%.4f parks/gen\n",
              idle_parties, cores, idle.ns_per_gen, idle_parks_per_gen);

  const bool pass = mismatches == 0;
  std::printf("\n%s: %llu reduction mismatches across all configs "
              "(expected 0)\n",
              pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(mismatches));
  if (cores < 8) {
    std::printf("note: %u-core host — rows with more parties than cores "
                "measure futex scheduling, not barrier structure; treat "
                "their ratios as indicative only\n",
                cores);
  }

  FILE* out = std::fopen("BENCH_round_sync.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"workload\": \"round boundary: barrier + min-reduction\",\n"
                 "  %s,\n"
                 "  \"generations\": %u,\n"
                 "  \"sweep\": [",
                 HostJson().c_str(), gens);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "%s\n    {\"parties\": %u, \"flat_ns_per_gen\": %.1f, "
                   "\"tree_ns_per_gen\": %.1f, \"tree_parks\": %llu, "
                   "\"tree_spin_budget\": %u}",
                   i == 0 ? "" : ",", r.parties, r.flat.ns_per_gen,
                   r.tree.ns_per_gen,
                   static_cast<unsigned long long>(r.tree.parks),
                   r.tree.spin_budget);
    }
    std::fprintf(out,
                 "\n  ],\n"
                 "  \"idle_cores\": {\"parties\": %u, \"ns_per_gen\": %.1f, "
                 "\"parks\": %llu, \"parks_per_gen\": %.6f},\n",
                 idle_parties, idle.ns_per_gen,
                 static_cast<unsigned long long>(idle.parks), idle_parks_per_gen);
    std::fprintf(out,
                 "  \"mismatches\": %llu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 static_cast<unsigned long long>(mismatches),
                 pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_round_sync.json\n");
  }

  if (!trace_path.empty()) {
    RunTracedSimulation(trace_path);
  }
  return pass ? 0 : 1;
}
