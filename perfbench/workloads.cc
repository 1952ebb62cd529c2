#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "src/net/app.h"
#include "src/net/network.h"
#include "src/net/session.h"
#include "src/topo/fat_tree.h"
#include "src/topo/torus.h"
#include "src/traffic/flow_source.h"
#include "src/traffic/generator.h"

namespace perfbench {

using unison::FlowSpec;
using unison::KernelType;
using unison::LpId;
using unison::Network;
using unison::NodeId;
using unison::PartitionMode;
using unison::RunSummary;
using unison::SimConfig;
using unison::SpeculationMode;
using unison::Time;
using unison::TrafficSpec;

namespace {

constexpr uint64_t kGbps = 1'000'000'000ULL;

// --- fattree-dense: processing-bound -------------------------------------
constexpr uint32_t kFatTreeK = 8;
constexpr uint64_t kFatTreeBps = 100 * kGbps;
constexpr int64_t kFatTreeHorizonUs = 1'500;

// --- torus-sync: synchronisation-bound -----------------------------------
constexpr uint32_t kTorusSide = 16;
constexpr uint64_t kTorusBps = 10 * kGbps;
constexpr int64_t kTorusHorizonUs = 1'000;
constexpr int64_t kTorusWindowUs = 50;

// --- wan-whatif: uneven LPs, speculation and the session layer -----------
constexpr uint32_t kSiteHosts[] = {16, 8, 8, 4, 8, 4, 4, 4};
constexpr uint32_t kSites = sizeof(kSiteHosts) / sizeof(kSiteHosts[0]);
constexpr uint64_t kWanBps = 10 * kGbps;
constexpr int64_t kWanHorizonUs = 2'000;
constexpr int64_t kWanWindowUs = 50;
constexpr uint32_t kWanBranches = 3;  // Branch 0 unchanged, the rest fail a ring link.

// Per-sample bookkeeping shared by the three workloads.
class SampleRun {
 public:
  SampleRun(const SampleConfig& config, SpanRecorder& spans, SampleResult* out)
      : config_(config), spans_(spans), out_(out) {}

  SimConfig MakeSimConfig(PartitionMode partition, bool speculate) const {
    SimConfig cfg;
    cfg.seed = config_.seed;
    cfg.trace = config_.trace;
    if (config_.parallel) {
      cfg.kernel.type = KernelType::kUnison;
      cfg.kernel.threads = config_.threads;
      cfg.partition = partition;
      if (speculate) {
        cfg.speculation = SpeculationMode::kAuto;
        cfg.tuning_config.spec_horizon_initial_ps = Time::Microseconds(kWanWindowUs).ps();
      }
    } else {
      cfg.kernel.type = KernelType::kSequential;
      cfg.partition = PartitionMode::kSingle;
    }
    return cfg;
  }

  template <typename Fn>
  void Build(const char* name, Fn&& fn) {
    out_->topo_build_s += Timed(spans_, name, "topo", 0, fn);
  }

  void Finalize(Network& net) {
    out_->finalize_s += Timed(spans_, "Network::Finalize", "net", 0, [&] { net.Finalize(); });
    const unison::Partition& p = net.partition();
    out_->lps = p.num_lps;
    out_->cut_links = static_cast<uint32_t>(p.cut_edges.size());
    out_->lookahead_ps = p.lookahead == Time::Max() ? 0 : p.lookahead.ps();
  }

  template <typename Fn>
  void Install(const char* name, Fn&& fn) {
    out_->install_s += Timed(spans_, name, "traffic", 0, fn);
  }

  // One Network::Run window, timed and recorded with its kernel counters.
  void RunWindow(Network& net, Time stop, uint32_t tid) {
    const uint64_t t0 = NowNs();
    const unison::RunResult r = net.Run(stop);
    const uint64_t t1 = NowNs();
    const RunSummary& sum = net.kernel().run_summary();
    const int span = spans_.Add("Network::Run", "kernel", tid, t0, t1);
    spans_.AddArg(span, "stop_us", stop.ToMicroseconds());
    spans_.AddArg(span, "events", static_cast<double>(r.events));
    spans_.AddArg(span, "rounds", static_cast<double>(r.rounds));
    spans_.AddArg(span, "spec_hits", sum.spec_hits);
    spans_.AddArg(span, "spec_misses", sum.spec_misses);
    out_->window_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    out_->events += r.events;
    out_->rounds += r.rounds;
    out_->spec_rounds += sum.spec_rounds;
    out_->spec_hits += sum.spec_hits;
    out_->spec_misses += sum.spec_misses;
    out_->rollback_ns += sum.rollback_ns;
  }

  // Runs fixed-length session windows from the session's current time up to
  // `horizon`.
  void RunWindows(Network& net, int64_t window_us, int64_t horizon_us, uint32_t tid) {
    const int64_t from_us = net.session_time().ps() / Time::Microseconds(1).ps();
    for (int64_t t = from_us + window_us; t < horizon_us + window_us; t += window_us) {
      RunWindow(net, Time::Microseconds(std::min(t, horizon_us)), tid);
    }
  }

  // Folds a network's trace and checkpoint counters into the sample.
  void FoldCounters(Network& net) {
    out_->checkpoint_captures += net.kernel().spec_checkpoint().captures();
    for (const unison::WindowTraceSegment& seg : net.run_trace().segments()) {
      out_->processing_ns += seg.summary.processing_ns;
      out_->sync_ns += seg.summary.synchronization_ns;
      out_->messaging_ns += seg.summary.messaging_ns;
      out_->imbalance_x_rounds += seg.summary.imbalance * static_cast<double>(seg.summary.rounds);
      for (const unison::RoundTraceRecord& rec : seg.records) {
        out_->barrier_ns += rec.barrier_ns;
        out_->parks += rec.parked;
        ++out_->traced_rounds;
      }
    }
  }

  // Folds in a finished network's counters and reads its results (timed as
  // the stats layer).
  void Harvest(Network& net, uint32_t tid) {
    FoldCounters(net);
    const bool first = out_->fingerprints.empty();
    out_->summarize_s += Timed(spans_, "FlowMonitor::Summarize+Fingerprint", "stats", tid, [&] {
      const unison::FlowSummary summary = net.flow_monitor().Summarize();
      if (first) {
        out_->summary = summary;
      }
      out_->fingerprints.push_back(net.flow_monitor().Fingerprint());
    });
    out_->session_events.push_back(net.kernel().session_events());
  }

  const SampleConfig& config() const { return config_; }
  SpanRecorder& spans() { return spans_; }
  SampleResult& out() { return *out_; }

 private:
  const SampleConfig& config_;
  SpanRecorder& spans_;
  SampleResult* out_;
};

TrafficSpec PoissonSpec(const std::vector<NodeId>& hosts, uint64_t bisection_bps,
                        int64_t horizon_us) {
  TrafficSpec spec;
  spec.hosts = hosts;
  spec.bisection_bps = bisection_bps;
  spec.load = 0.3;
  spec.duration = Time::Microseconds(horizon_us);
  return spec;
}

void RunFatTree(SampleRun& d) {
  Network net(d.MakeSimConfig(PartitionMode::kAuto, false));
  unison::FatTreeTopo topo;
  d.Build("BuildFatTree", [&] {
    topo = unison::BuildFatTree(net, kFatTreeK, kFatTreeBps, Time::Microseconds(3));
  });
  d.Finalize(net);
  d.Install("InstallFlowSources", [&] {
    unison::InstallFlowSources(net, PoissonSpec(topo.hosts, topo.bisection_bps, kFatTreeHorizonUs));
  });
  const uint64_t t0 = NowNs();
  d.RunWindow(net, Time::Microseconds(kFatTreeHorizonUs), 0);
  d.out().run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  d.Harvest(net, 0);
}

void RunTorus(SampleRun& d) {
  Network net(d.MakeSimConfig(PartitionMode::kAuto, false));
  unison::TorusTopo topo;
  d.Build("BuildTorus2D", [&] {
    topo = unison::BuildTorus2D(net, kTorusSide, kTorusSide, kTorusBps, Time::Nanoseconds(100));
  });
  d.Finalize(net);
  d.Install("InstallFlowSources", [&] {
    // Uniform sizes, not web-search: a 2 ms horizon held only ~60 web-search
    // flows, and the event count moved +-15% from seed to seed; this 1 ms
    // horizon holds half as many.
    TrafficSpec spec = PoissonSpec(topo.nodes, topo.bisection_bps, kTorusHorizonUs);
    spec.sizes = &unison::EmpiricalCdf::Uniform(4 * 1024, 64 * 1024);
    unison::InstallFlowSources(net, spec);
  });
  const uint64_t t0 = NowNs();
  d.RunWindows(net, kTorusWindowUs, kTorusHorizonUs, 0);
  d.out().run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  d.Harvest(net, 0);
}

// Uniform draw in [0, n) from the benchmark's own generator, independent of
// the standard library's distribution implementations.
uint64_t Below(std::mt19937_64& rng, uint64_t n) { return rng() % n; }

struct Sites {
  std::vector<NodeId> routers;
  std::vector<std::vector<NodeId>> hosts;
  std::vector<uint32_t> ring_links;
};

// Each site is a star of hosts behind one router (1 us access links); the
// routers form a 100 ns ring. One LP per site, so the only cut links are the
// ring's and the lookahead is 100 ns while most traffic stays inside a site.
Sites BuildSites(Network& net) {
  Sites sites;
  sites.hosts.resize(kSites);
  std::vector<LpId> lp_of_node;
  for (uint32_t s = 0; s < kSites; ++s) {
    sites.routers.push_back(net.AddNode());
    lp_of_node.push_back(s);
    for (uint32_t h = 0; h < kSiteHosts[s]; ++h) {
      const NodeId host = net.AddNode();
      lp_of_node.push_back(s);
      net.AddLink(host, sites.routers[s], kWanBps, Time::Microseconds(1));
      sites.hosts[s].push_back(host);
    }
  }
  for (uint32_t s = 0; s < kSites; ++s) {
    sites.ring_links.push_back(net.AddLink(sites.routers[s], sites.routers[(s + 1) % kSites],
                                           kWanBps, Time::Nanoseconds(100)));
  }
  net.SetManualPartition(kSites, std::move(lp_of_node));
  return sites;
}

// Every 250 us each host sends one flow to another host of its site, with
// start times staggered over the burst. Sparse inter-site flows ride on top:
// every 500 us each site sends one small flow to another site. Sizes,
// partners and start times come from the seed.
std::vector<FlowSpec> WanFlows(const Sites& sites, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5157);
  std::vector<FlowSpec> flows;
  const int64_t horizon_ps = Time::Microseconds(kWanHorizonUs).ps();
  const int64_t burst_ps = Time::Microseconds(250).ps();
  for (int64_t t = 0; t < horizon_ps; t += burst_ps) {
    for (uint32_t s = 0; s < kSites; ++s) {
      const std::vector<NodeId>& hosts = sites.hosts[s];
      for (uint32_t h = 0; h < hosts.size(); ++h) {
        FlowSpec f;
        f.src = hosts[h];
        f.dst = hosts[(h + 1 + Below(rng, hosts.size() - 1)) % hosts.size()];
        f.bytes = 32 * 1024 + Below(rng, 64 * 1024);
        f.start = Time::Picoseconds(t + static_cast<int64_t>(Below(rng, 200'000'000)));
        flows.push_back(f);
      }
    }
  }
  const int64_t cross_ps = Time::Microseconds(500).ps();
  for (int64_t t = cross_ps / 2; t < horizon_ps; t += cross_ps) {
    for (uint32_t s = 0; s < kSites; ++s) {
      const uint32_t remote = (s + 1 + static_cast<uint32_t>(Below(rng, kSites - 1))) % kSites;
      FlowSpec f;
      f.src = sites.hosts[s][Below(rng, sites.hosts[s].size())];
      f.dst = sites.hosts[remote][Below(rng, sites.hosts[remote].size())];
      f.bytes = 8 * 1024 + Below(rng, 16 * 1024);
      f.start = Time::Picoseconds(t + static_cast<int64_t>(Below(rng, 100'000'000)));
      flows.push_back(f);
    }
  }
  return flows;
}

void RunWan(SampleRun& d) {
  const SampleConfig& config = d.config();
  SampleResult& out = d.out();
  SpanRecorder& spans = d.spans();
  Network net(d.MakeSimConfig(PartitionMode::kManual, true));
  Sites sites;
  d.Build("BuildSites", [&] { sites = BuildSites(net); });
  d.Finalize(net);
  const std::vector<FlowSpec> flows = WanFlows(sites, config.seed);
  d.Install("InstallFlow", [&] {
    for (const FlowSpec& f : flows) {
      unison::InstallFlow(net, f);
    }
  });

  // Branch b > 0 fails a distinct ring link shortly after the fork point.
  std::mt19937_64 rng(config.seed ^ 0xfa11);
  std::vector<uint32_t> failed = sites.ring_links;
  for (size_t i = failed.size() - 1; i > 0; --i) {
    std::swap(failed[i], failed[Below(rng, i + 1)]);
  }

  const int64_t mid_us = kWanHorizonUs / 2;
  const uint64_t t0 = NowNs();
  d.RunWindows(net, kWanWindowUs, mid_us, 0);
  unison::Session session(&net);
  unison::SessionSnapshot snap;
  out.snapshot_s = Timed(spans, "Session::Snapshot", "net.session", 0,
                         [&] { snap = session.Snapshot(); });
  out.snapshot_bytes = snap.size_bytes();
  unison::SessionSnapshot loaded;
  out.save_load_s =
      Timed(spans, "SessionSnapshot::SaveTo", "net.session", 0,
            [&] { snap.SaveTo(config.snapshot_path); }) +
      Timed(spans, "SessionSnapshot::LoadFrom", "net.session", 0,
            [&] { loaded = unison::SessionSnapshot::LoadFrom(config.snapshot_path); });
  std::remove(config.snapshot_path.c_str());
  if (loaded.Digest() != snap.Digest()) {
    throw std::runtime_error("snapshot changed across SaveTo/LoadFrom");
  }
  for (uint32_t b = 0; b < kWanBranches; ++b) {
    std::unique_ptr<Network> branch;
    out.fork_s += Timed(spans, "Session::Fork", "net.session", 1 + b,
                        [&] { branch = session.Fork(loaded); });
    if (b > 0) {
      branch->FailLink(failed[b - 1], Time::Microseconds(mid_us + 5));
    }
    const uint64_t b0 = NowNs();
    d.RunWindows(*branch, kWanWindowUs, kWanHorizonUs, 1 + b);
    const uint64_t b1 = NowNs();
    spans.Add("branch", "net.session", 1 + b, b0, b1);
    out.branch_run_s += static_cast<double>(b1 - b0) * 1e-9;
    d.Harvest(*branch, 1 + b);
  }
  out.run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  // The prefix ran on `net`; its flows are read back through branch 0.
  d.FoldCounters(net);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "fattree-dense" || name == "torus-sync" || name == "wan-whatif";
}

SampleResult RunSample(const SampleConfig& config, SpanRecorder& spans) {
  SampleResult out;
  SampleRun d(config, spans, &out);
  if (config.workload == "fattree-dense") {
    RunFatTree(d);
  } else if (config.workload == "torus-sync") {
    RunTorus(d);
  } else if (config.workload == "wan-whatif") {
    RunWan(d);
  } else {
    throw std::invalid_argument("unknown workload " + config.workload);
  }
  out.setup_s = out.topo_build_s + out.finalize_s + out.install_s;
  return out;
}

}  // namespace perfbench
