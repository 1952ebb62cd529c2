// Traffic generation: CDF sampling and workload construction.
#include <gtest/gtest.h>

#include "src/net/network.h"
#include "src/topo/fat_tree.h"
#include "src/traffic/cdf.h"
#include "src/traffic/generator.h"

namespace unison {
namespace {

TEST(Cdf, SampleStaysWithinSupport) {
  Rng rng(5, 0);
  const EmpiricalCdf& ws = EmpiricalCdf::WebSearch();
  for (int i = 0; i < 10000; ++i) {
    const uint64_t s = ws.Sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 20000000u);
  }
}

TEST(Cdf, EmpiricalMeanMatchesAnalyticMean) {
  for (const EmpiricalCdf* cdf : {&EmpiricalCdf::WebSearch(), &EmpiricalCdf::Grpc()}) {
    Rng rng(6, 0);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(cdf->Sample(rng));
    }
    const double sample_mean = sum / n;
    EXPECT_NEAR(sample_mean / cdf->MeanBytes(), 1.0, 0.05);
  }
}

TEST(Cdf, WebSearchIsHeavyTailed) {
  // Most flows are small, most bytes are in big flows.
  Rng rng(7, 0);
  const EmpiricalCdf& ws = EmpiricalCdf::WebSearch();
  int small = 0;
  double small_bytes = 0;
  double total_bytes = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double s = static_cast<double>(ws.Sample(rng));
    total_bytes += s;
    if (s < 100e3) {
      ++small;
      small_bytes += s;
    }
  }
  EXPECT_GT(small, n / 2);                        // >50% of flows are small.
  EXPECT_LT(small_bytes, total_bytes * 0.25);     // <25% of the bytes.
}

TEST(Cdf, UniformIsCachedAndStable) {
  const EmpiricalCdf& a = EmpiricalCdf::Uniform(100, 200);
  const EmpiricalCdf& b = EmpiricalCdf::Uniform(500, 900);
  const EmpiricalCdf& a2 = EmpiricalCdf::Uniform(100, 200);
  EXPECT_EQ(&a, &a2);
  Rng rng(8, 0);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = a.Sample(rng);
    EXPECT_GE(s, 100u);
    EXPECT_LE(s, 200u);
    const uint64_t t = b.Sample(rng);
    EXPECT_GE(t, 500u);
    EXPECT_LE(t, 900u);
  }
}

TEST(Generator, LoadApproximatesTarget) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  TrafficSpec spec;
  spec.hosts = topo.hosts;
  spec.bisection_bps = topo.bisection_bps;
  spec.load = 0.3;
  spec.duration = Time::Milliseconds(100);
  const GeneratedTraffic traffic = GenerateTraffic(net, spec);
  const double offered_bits = static_cast<double>(traffic.total_bytes) * 8;
  const double target_bits =
      0.3 * static_cast<double>(topo.bisection_bps) * 0.1;  // Over 100ms.
  EXPECT_NEAR(offered_bits / target_bits, 1.0, 0.35);
  EXPECT_GT(traffic.flow_ids.size(), 10u);
}

TEST(Generator, DeterministicForSameSeed) {
  auto gen = [](uint64_t seed) {
    SimConfig cfg;
    cfg.kernel.type = KernelType::kSequential;
    cfg.seed = seed;
    Network net(cfg);
    FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    TrafficSpec spec;
    spec.hosts = topo.hosts;
    spec.bisection_bps = topo.bisection_bps;
    spec.load = 0.2;
    spec.duration = Time::Milliseconds(20);
    GenerateTraffic(net, spec);
    uint64_t h = 0;
    net.flow_monitor().ForEachFlow([&h](const FlowRecord& f) {
      h = h * 1000003 + f.src * 131 + f.dst * 31 + f.bytes + f.start.ps() % 100000;
    });
    return h;
  };
  EXPECT_EQ(gen(42), gen(42));
  EXPECT_NE(gen(42), gen(43));
}

TEST(Generator, IncastRatioDirectsFlowsAtVictim) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  TrafficSpec spec;
  spec.hosts = topo.hosts;
  spec.bisection_bps = topo.bisection_bps;
  spec.load = 0.3;
  spec.duration = Time::Milliseconds(50);
  spec.incast_ratio = 1.0;
  spec.victim_index = 3;
  GenerateTraffic(net, spec);
  // Ratio 1.0: every flow not sourced by the victim itself targets the
  // victim (the victim's own flows keep their uniform destinations).
  const NodeId victim = topo.hosts[3];
  uint64_t at_victim = 0;
  uint64_t total = 0;
  net.flow_monitor().ForEachFlow([&](const FlowRecord& f) {
    if (f.src == victim) {
      return;
    }
    ++total;
    if (f.dst == victim) {
      ++at_victim;
    }
  });
  ASSERT_GT(total, 0u);
  EXPECT_EQ(at_victim, total);
}

TEST(Generator, PermutationPairsEveryHostOnce) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  const GeneratedTraffic traffic =
      GeneratePermutation(net, topo.hosts, 10000, Time::Zero());
  EXPECT_EQ(traffic.flow_ids.size(), topo.hosts.size());
  std::vector<int> as_src(net.num_nodes(), 0);
  std::vector<int> as_dst(net.num_nodes(), 0);
  net.flow_monitor().ForEachFlow([&](const FlowRecord& f) {
    ++as_src[f.src];
    ++as_dst[f.dst];
  });
  for (NodeId h : topo.hosts) {
    EXPECT_EQ(as_src[h], 1);
    EXPECT_EQ(as_dst[h], 1);
  }
}

}  // namespace
}  // namespace unison
