#include "src/net/network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/net/model_events.h"
#include "src/net/session.h"
#include "src/partition/fine_grained.h"
#include "src/partition/manual.h"
#include "src/traffic/flow_source.h"

namespace unison {

Network::Network(SimConfig config) : config_(std::move(config)) {
  // Tracing rides on the profiler gate: a trace without the per-round P/S
  // matrices would be hollow, so cfg.trace implies profile + per-round. The
  // controller consumes trace segments, so kAuto implies the same machinery —
  // minus claim-order rows (O(#LP) each), which only a user trace keeps.
  const bool auto_tuning = config_.tuning == TuningMode::kAuto;
  profiler_.enabled = config_.profile || config_.trace || auto_tuning;
  profiler_.per_round = config_.profile_per_round || config_.trace || auto_tuning;
  profiler_.per_lp = config_.profile_per_lp;
  run_trace_.enabled = config_.trace || auto_tuning;
  run_trace_.record_claim_order = config_.trace && config_.trace_claim_order;
}

Network::~Network() = default;

NodeId Network::AddNode() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(this, id));
  return id;
}

void Network::AddNodes(uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    AddNode();
  }
}

std::unique_ptr<Queue> Network::MakeQueue(const QueueConfig& config, uint64_t stream) const {
  switch (config.kind) {
    case QueueConfig::Kind::kDropTail:
      return std::make_unique<DropTailQueue>(config.capacity_bytes);
    case QueueConfig::Kind::kRed: {
      RedConfig red;
      red.capacity_bytes = config.capacity_bytes;
      red.min_th = config.red_min_th;
      red.max_th = config.red_max_th;
      red.max_p = config.red_max_p;
      red.weight = config.red_weight;
      red.ecn = config_.tcp.ecn || config_.tcp.dctcp;
      red.seed = config_.seed * 0x9e3779b97f4a7c15ULL + stream;
      return std::make_unique<RedQueue>(red);
    }
    case QueueConfig::Kind::kDctcp:
      return RedQueue::MakeDctcp(static_cast<uint32_t>(config.red_min_th),
                                 config.capacity_bytes);
  }
  return nullptr;
}

uint32_t Network::AddLink(NodeId a, NodeId b, uint64_t bps, Time delay) {
  return AddLink(a, b, bps, delay, config_.queue);
}

uint32_t Network::AddLink(NodeId a, NodeId b, uint64_t bps, Time delay,
                          const QueueConfig& queue, bool stateless) {
  if (finalized()) {
    FatalConfigError(
        "Network: AddLink after Finalize is not supported; use SetLinkUp "
        "from a global event for dynamics");
  }
  const uint32_t id = static_cast<uint32_t>(links_.size());
  Device* da = nodes_[a]->AddDevice(b, bps, delay, MakeQueue(queue, 2 * id));
  Device* db = nodes_[b]->AddDevice(a, bps, delay, MakeQueue(queue, 2 * id + 1));
  links_.push_back(
      LinkInfo{a, b, da->port(), db->port(), bps, delay, true, stateless, queue});
  return id;
}

void Network::SetManualPartition(uint32_t num_lps, std::vector<LpId> lp_of_node) {
  manual_partition_.num_lps = num_lps;
  manual_partition_.lp_of_node = std::move(lp_of_node);
  has_manual_partition_ = true;
}

void Network::EnableDistanceVector(Time period) {
  use_dv_ = true;
  dv_period_ = period;
}

void Network::EnableProgressReport(Time interval,
                                   std::function<void(Time, uint64_t)> callback) {
  Finalize();
  if (!callback) {
    callback = [](Time now, uint64_t events) {
      std::fprintf(stderr, "[unison] t=%.6fs, %llu events so far\n", now.ToSeconds(),
                   static_cast<unsigned long long>(events));
    };
  }
  // Self-rescheduling global event; the chain ends when the next occurrence
  // falls beyond the stop time. The closure is owned by the network (not by
  // itself — a self-capturing shared_ptr would be a reference cycle) and
  // events capture a raw pointer into that stable storage.
  struct Ticker {
    Network* self;
    Time interval;
    std::function<void(Time, uint64_t)> cb;
    void Fire() {
      const Time now = self->sim().Now();
      cb(now, self->kernel().LiveEvents());
      self->sim().ScheduleGlobal(now + interval, [t = this] { t->Fire(); });
    }
  };
  auto ticker = std::make_shared<Ticker>(Ticker{this, interval, std::move(callback)});
  sim().ScheduleGlobal(interval, [t = ticker.get()] { t->Fire(); });
  Keep(std::move(ticker));
}

void Network::BuildGraph() {
  graph_.num_nodes = num_nodes();
  graph_.edges.clear();
  graph_.edges.reserve(links_.size());
  for (const LinkInfo& link : links_) {
    graph_.edges.push_back(TopoEdge{link.a, link.b, link.delay, link.stateless});
  }
}

void Network::Finalize() {
  if (finalized()) {
    return;
  }
  BuildGraph();

  Partition partition;
  PartitionMode mode = config_.partition;
  if (config_.kernel.type == KernelType::kSequential) {
    mode = PartitionMode::kSingle;  // One FEL; anything else is pure overhead.
  }
  switch (mode) {
    case PartitionMode::kAuto:
      partition = FineGrainedPartition(graph_);
      break;
    case PartitionMode::kManual:
      if (!has_manual_partition_) {
        FatalConfigError("Network: manual partition requested but none set");
      }
      partition = manual_partition_;
      FinalizePartition(graph_, &partition);
      break;
    case PartitionMode::kSingle:
      partition = SingleLpPartition(graph_);
      break;
  }

  kernel_ = MakeKernel(config_.kernel);
  kernel_->set_profiler(&profiler_);
  kernel_->set_trace(&run_trace_);
  // Two-tier config split: the mutable knobs move into the tunable store,
  // seeded from the KernelConfig. Every kernel samples the store per window,
  // tuning on or off — a store that only ever holds its seed (epoch 0) is
  // exactly the static configuration.
  Tunables seed;
  seed.sched_period = config_.kernel.sched_period;
  seed.parties = config_.kernel.threads;
  seed.affinity = config_.kernel.affinity;
  if (config_.tuning == TuningMode::kAuto) {
    // Bound the first windows so the controller gets observations before the
    // caller's stop time, not only at it (slicing is results-neutral).
    seed.max_window_ps = config_.tuning_config.initial_window_ps;
  }
  if (config_.speculation == SpeculationMode::kAuto) {
    // Live the horizon from the start; under tuning=kAuto the controller's
    // spec-horizon rule revises it between windows. A zero horizon is how
    // every other session stays on the conservative path — the kernels never
    // even capture a checkpoint then.
    seed.spec_horizon_ps = config_.tuning_config.spec_horizon_initial_ps;
  }
  tunable_store_.Seed(seed);
  kernel_->set_tunables(&tunable_store_);
  if (config_.tuning == TuningMode::kAuto) {
    controller_ =
        std::make_unique<Controller>(config_.tuning_config, &tunable_store_);
  }
  if (pending_external_pool_ != nullptr) {
    kernel_->set_external_pool(pending_external_pool_);
  }
  kernel_->Setup(graph_, partition);
  sim_.set_kernel(kernel_.get());

  // Per-executor flow-stat shards: shard 0 for non-executor contexts (setup,
  // injection between windows, the sequential kernel) plus one per pool
  // executor, merged at every window boundary once the kernel's final
  // barrier reduction has quiesced the pool.
  flow_monitor_.ConfigureShards(1 + kernel_->MaxExecutors());
  kernel_->set_window_end_hook([this] { flow_monitor_.MergeWindow(); });

  if (config_.speculation == SpeculationMode::kAuto) {
    // Checkpoint hooks for speculative window execution. The kernel owns
    // the policy (when to capture, when to roll back); the session layer
    // owns the representation. Capture may decline (lambda events, DV
    // routing) — the kernel then runs that window conservatively.
    kernel_->set_checkpoint_hooks(
        [this](std::vector<uint8_t>* out) {
          return CaptureWindowCheckpoint(*this, out);
        },
        [this](const std::vector<uint8_t>& buf) {
          RestoreWindowCheckpoint(*this, buf);
        });
  }

  if (use_dv_) {
    dv_routing_ = std::make_unique<DistanceVectorRouting>(this, dv_period_);
    dv_routing_->Install();
  } else {
    routing_.Compute(*this);
  }
}

void Network::MaybeAutoCheckpoint() {
  if (config_.kernel.auto_checkpoint_every == 0 ||
      config_.auto_checkpoint_path.empty()) {
    return;
  }
  if (++windows_since_checkpoint_ < config_.kernel.auto_checkpoint_every) {
    return;
  }
  const std::optional<SessionSnapshot> snap = Session(this).TrySnapshot();
  if (!snap) {
    // A non-serializable boundary (e.g. a progress ticker pending): leave
    // the counter saturated so every subsequent boundary retries until one
    // is clean, instead of silently sliding the whole cadence.
    --windows_since_checkpoint_;
    return;
  }
  windows_since_checkpoint_ = 0;
  snap->SaveTo(config_.auto_checkpoint_path);
}

RunResult Network::Run(Time stop) {
  Finalize();
  if (controller_ == nullptr) {
    const RunResult r = kernel_->Run(stop);
    MaybeAutoCheckpoint();
    return r;
  }
  // Closed loop: slice the caller's horizon by the live window bound, feed
  // each completed window's trace segment to the controller, and continue
  // until the caller's stop is reached (or the run ends for another reason).
  // Window slicing is results-neutral (K windowed runs are bit-identical to
  // one monolithic run), so this loop changes wall time only.
  RunResult total;
  for (;;) {
    const int64_t horizon = tunable_store_.Get().max_window_ps;
    Time next = stop;
    if (horizon > 0 && !stop.IsMax()) {
      next = std::min(stop, kernel_->session_now() + Time::Picoseconds(horizon));
    } else if (horizon > 0) {
      next = kernel_->session_now() + Time::Picoseconds(horizon);
    }
    const RunResult r = kernel_->Run(next);
    total.reason = r.reason;
    total.end = r.end;
    total.events += r.events;
    total.rounds += r.rounds;
    if (!run_trace_.segments().empty()) {
      controller_->OnWindowEnd(run_trace_.segments().back(),
                               kernel_->ownership_view());
    }
    MaybeAutoCheckpoint();
    if (r.reason != RunReason::kWindowReached || r.end >= stop) {
      return total;
    }
  }
}

void Network::FailLink(uint32_t link, Time t) {
  Finalize();
  if (link >= links_.size()) {
    FatalConfigError("Network: FailLink on a link index that does not exist");
  }
  sim_.ScheduleGlobal(t, LinkUpDownEvent{this, link, /*up=*/false});
}

uint32_t Network::RegisterFlowSourceSet(std::shared_ptr<FlowSourceSet> set) {
  const uint32_t index = static_cast<uint32_t>(flow_source_sets_.size());
  set->AssignIndex(index);
  flow_source_sets_.push_back(std::move(set));
  return index;
}

FlowSourceSet* Network::flow_source_set(uint32_t index) {
  return flow_source_sets_[index].get();
}

void Network::SetLinkUp(uint32_t link, bool up) {
  LinkInfo& info = links_[link];
  info.up = up;
  nodes_[info.a]->device(info.port_a)->set_up(up);
  nodes_[info.b]->device(info.port_b)->set_up(up);
  if (dv_routing_ != nullptr) {
    dv_routing_->OnLinkChange(info.a, info.b);
  }
  OnTopologyChanged();
}

void Network::SetLinkDelay(uint32_t link, Time delay) {
  LinkInfo& info = links_[link];
  info.delay = delay;
  nodes_[info.a]->device(info.port_a)->set_delay(delay);
  nodes_[info.b]->device(info.port_b)->set_delay(delay);
  graph_.edges[link].delay = delay;
  OnTopologyChanged();
}

void Network::OnTopologyChanged() {
  if (dv_routing_ == nullptr) {
    routing_.Compute(*this);
  }
  sim_.NotifyTopologyChanged();
}

Network::QueueTotals Network::AggregateQueueStats() const {
  QueueTotals totals;
  for (const auto& node : nodes_) {
    for (uint32_t p = 0; p < node->num_ports(); ++p) {
      // AggregateQueueStats is const but device() is not; nodes are owned.
      const QueueStats& qs =
          const_cast<Node&>(*node).device(p)->queue().stats();
      totals.dropped += qs.dropped;
      totals.ecn_marked += qs.ecn_marked;
      totals.dequeued += qs.dequeued;
      totals.total_delay += qs.total_delay;
    }
  }
  return totals;
}

}  // namespace unison
