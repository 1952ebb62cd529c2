// Data-center incast: many senders converge on one victim host — the
// workload that exposes the synchronization weakness of static-partition
// PDES (§3.2, Observation 1) and the classic use case for DCTCP.
//
// The example runs the same incast storm twice, with TCP NewReno over
// drop-tail queues and with DCTCP over step-marking queues, and reports
// flow completion times, queueing delay, drops and ECN marks.
//
//   $ ./examples/datacenter_incast
#include <cstdio>
#include <optional>

#include "src/unison.h"

namespace {

struct IncastResult {
  unison::FlowSummary flows;
  unison::Network::QueueTotals queues;
};

IncastResult RunIncast(bool dctcp) {
  unison::SimConfig cfg;
  cfg.kernel.type = unison::KernelType::kUnison;
  cfg.kernel.threads = 4;
  cfg.seed = 21;
  cfg.tcp.dctcp = dctcp;
  cfg.tcp.min_rto = unison::Time::Milliseconds(1);
  if (dctcp) {
    cfg.queue.kind = unison::QueueConfig::Kind::kDctcp;
    cfg.queue.red_min_th = 30 * 1500;  // K = 30 packets.
  }

  unison::Network net(cfg);
  unison::FatTreeTopo topo =
      unison::BuildFatTree(net, 4, 10'000'000'000ULL, unison::Time::Microseconds(3));
  net.Finalize();

  // 12 senders, one victim, 256KB each, all at t=0 — plus light background.
  const unison::NodeId victim = topo.hosts[0];
  for (int i = 1; i <= 12; ++i) {
    unison::InstallFlow(net, unison::FlowSpec{.src = topo.hosts[i],
                                              .dst = victim,
                                              .bytes = 256 * 1024,
                                              .start = unison::Time::Zero(),
                                              .tcp = std::nullopt});
  }
  unison::TrafficSpec bg;
  bg.hosts = topo.hosts;
  bg.bisection_bps = topo.bisection_bps;
  bg.load = 0.05;
  bg.duration = unison::Time::Milliseconds(20);
  bg.rng_stream = 500;
  unison::GenerateTraffic(net, bg);

  net.Run(unison::Time::Milliseconds(50));
  return IncastResult{net.flow_monitor().Summarize(), net.AggregateQueueStats()};
}

void Print(const char* name, const IncastResult& r) {
  std::printf("  %-8s  completed %3lu/%3lu  mean FCT %7.3f ms  p99 %7.3f ms  "
              "queue delay %7.1f us  drops %5lu  marks %5lu\n",
              name, static_cast<unsigned long>(r.flows.completed),
              static_cast<unsigned long>(r.flows.flows), r.flows.mean_fct_ms,
              r.flows.p99_fct_ms, r.queues.mean_delay_us(),
              static_cast<unsigned long>(r.queues.dropped),
              static_cast<unsigned long>(r.queues.ecn_marked));
}

}  // namespace

int main() {
  std::printf("12-to-1 incast on a k=4 fat-tree (10Gbps, 3us links), Unison x4 threads\n\n");
  const IncastResult newreno = RunIncast(false);
  const IncastResult dctcp = RunIncast(true);
  Print("NewReno", newreno);
  Print("DCTCP", dctcp);
  std::printf("\nDCTCP trades ECN marks for queue depth: its mean queueing delay\n"
              "should be a fraction of NewReno's under the same storm.\n");
  return 0;
}
