#include "src/kernel/kernel.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace unison {

const char* RunReasonName(RunReason reason) {
  switch (reason) {
    case RunReason::kWindowReached:
      return "window";
    case RunReason::kExhausted:
      return "exhausted";
    case RunReason::kStopRequested:
      return "stop";
  }
  return "unknown";
}

void FatalConfigError(const std::string& message) {
  std::fprintf(stderr, "unison: %s\n", message.c_str());
  std::abort();
}

std::string KernelConfig::Validate() const {
  if (threads == 0) {
    return "KernelConfig.threads must be >= 1 (0 workers cannot make "
           "progress; use threads=1 for a single-executor run)";
  }
  if (type == KernelType::kHybrid && ranks < 1) {
    return "KernelConfig.ranks must be >= 1 for the hybrid kernel (each "
           "rank models one simulated host)";
  }
  if (sched_period > kMaxSchedPeriod) {
    return "KernelConfig.sched_period is implausibly large (> 2^20 rounds "
           "between re-sorts); it counts rounds, not time — use 0 for the "
           "ceil(log2 n) default";
  }
  if (affinity != AffinityPolicy::kNone &&
      affinity != AffinityPolicy::kCompact &&
      affinity != AffinityPolicy::kScatter) {
    return "KernelConfig.affinity must be one of none|compact|scatter";
  }
  return {};
}

void Kernel::Setup(const TopoGraph& graph, const Partition& partition) {
  graph_ = &graph;
  partition_ = partition;
  lps_.clear();
  lps_.reserve(partition_.num_lps);
  for (LpId i = 0; i < partition_.num_lps; ++i) {
    lps_.push_back(std::make_unique<Lp>(i, config_.deterministic));
  }
  public_lp_ = std::make_unique<Lp>(kPublicLp, config_.deterministic);
  processed_events_ = 0;
  rounds_ = 0;
  session_now_ = Time::Zero();
  resume_floor_ = Time::Zero();
  session_events_ = 0;
  session_rounds_ = 0;
  session_windows_ = 0;
  stop_requested_ = false;
  // Trivial single-executor ownership; kernels with real executor domains
  // install theirs right after this base Setup returns.
  pmap_.ResetBlocked(partition_.num_lps, 1);
  ownership_movable_ = false;
  applied_rebalance_seq_ = 0;
  window_migrations_ = 0;
  lp_window_cost_ns_.assign(partition_.num_lps, 0);
  if (trace_ != nullptr) {
    trace_->BeginSession();
  }
  WireMailboxes();
}

void Kernel::BeginWindow() {
  stop_requested_.store(false, std::memory_order_relaxed);
  lp_window_cost_ns_.assign(num_lps(), 0);
}

void Kernel::ApplyPendingMigrations() {
  if (tunables_ != nullptr) {
    const Tunables& live = tunables_->Get();
    if (live.rebalance_seq > applied_rebalance_seq_) {
      pmap_.Stage(live.moves);
      applied_rebalance_seq_ = live.rebalance_seq;
    }
  }
  window_migrations_ = 0;
  if (pmap_.has_staged()) {
    window_migrations_ = pmap_.ApplyStaged();
    if (window_migrations_ > 0) {
      OnOwnershipChanged();
    }
  }
}

void Kernel::ScheduleOnNode(NodeId node, Time abs, EventFn fn) {
  const LpId target_id = partition_.lp_of_node[node];
  Lp* const target = lps_[target_id].get();
  Lp* const cur = Lp::Current();
  if (cur == nullptr || cur == target) {
    // Setup time (single-threaded) or intra-LP: direct FEL insert.
    target->ScheduleLocal(abs, node, std::move(fn));
  } else if (cur == public_lp_.get()) {
    // Global-event phase: the main thread runs alone, so direct insertion
    // into any LP is safe ("global events have to be handled just once").
    target->Insert(Event{cur->MakeKey(abs), node, std::move(fn)});
  } else {
    ScheduleRemote(cur, target_id, Event{cur->MakeKey(abs), node, std::move(fn)});
  }
}

namespace {
// Set when this thread pushed a global from an LP event; see
// Kernel::TakeGlobalScheduled.
thread_local bool t_global_scheduled = false;
}  // namespace

void Kernel::ScheduleGlobal(Time abs, EventFn fn) {
  Lp* const cur = Lp::Current();
  // Global events are normally scheduled before the run or from another
  // global event (§4.2), both single-threaded contexts. Scheduling from an
  // LP event is tolerated but serialized: the public FEL is shared.
  if (cur != nullptr && cur != public_lp_.get()) {
    std::lock_guard<std::mutex> lock(public_mu_);
    public_lp_->fel().Push(Event{cur->MakeKey(abs), kNoNode, std::move(fn)});
    t_global_scheduled = true;
    return;
  }
  Lp* const sender = cur != nullptr ? cur : public_lp_.get();
  public_lp_->fel().Push(Event{sender->MakeKey(abs), kNoNode, std::move(fn)});
}

bool Kernel::TakeGlobalScheduled() {
  const bool scheduled = t_global_scheduled;
  t_global_scheduled = false;
  return scheduled;
}

void Kernel::NotifyTopologyChanged() {
  FinalizePartition(*graph_, &partition_);
  WireMailboxes();
}

void Kernel::ScheduleRemote(Lp* from, LpId target, Event ev) {
  Outbox* const box = from->FindOutbox(target);
  if (box != nullptr) {
    box->events.push_back(std::move(ev));
  } else {
    // No wired channel (possible after a dynamic topology change until the
    // next rewire): fall back to the locked overflow box.
    lps_[target]->overflow().Push(std::move(ev));
  }
}

void Kernel::WireMailboxes() {
  for (const CutEdge& edge : partition_.cut_edges) {
    for (const auto& [src, dst] : {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      Lp* const from = lps_[src].get();
      if (from->FindOutbox(dst) == nullptr) {
        lps_[dst]->AddInbox(from->AddOutbox(dst));
      }
    }
  }
}

Time Kernel::ComputeLbts() const {
  Time min_next = Time::Max();
  for (const auto& lp : lps_) {
    min_next = std::min(min_next, lp->fel().NextTimestamp());
  }
  const Time npub = public_lp_->fel().NextTimestamp();
  if (min_next.IsMax() || partition_.lookahead.IsMax()) {
    return npub;
  }
  return std::min(npub, min_next + partition_.lookahead);
}

uint64_t Kernel::RunGlobalEvents(Time upto, Time stop) {
  if (upto.IsMax()) {
    return public_lp_->ProcessUntil(stop);
  }
  const Time bound = std::min(stop, upto + Time::Picoseconds(1));
  return public_lp_->ProcessUntil(bound);
}

Kernel::WindowTuning Kernel::SampleTuning(uint32_t default_parties,
                                          bool parties_tunable) const {
  WindowTuning t;
  uint32_t period = config_.sched_period;
  uint32_t parties = default_parties;
  AffinityPolicy affinity = config_.affinity;
  if (tunables_ != nullptr) {
    const Tunables& live = tunables_->Get();
    t.epoch = tunables_->epoch();
    if (live.sched_period > 0) {
      period = live.sched_period;
    }
    if (parties_tunable && live.parties > 0) {
      // The config default is also the ceiling: FlowMonitor shards and other
      // per-executor state were sized from it at Finalize.
      parties = std::min(live.parties, default_parties);
    }
    affinity = live.affinity;
  }
  if (period == 0) {
    const uint32_t n = std::max(2u, num_lps());
    period = static_cast<uint32_t>(std::bit_width(n - 1));  // ceil(log2 n)
  }
  t.sched_period = period;
  t.parties = std::max(1u, parties);
  t.affinity = affinity;
  if (tunables_ != nullptr) {
    // No config fallback: speculation is live-plane-only (Network::Finalize
    // seeds the horizon under speculation=auto; the controller revises it).
    t.spec_horizon_ps = tunables_->Get().spec_horizon_ps;
  }
  return t;
}

bool Kernel::BeginSpeculativeWindow() {
  spec_rounds_win_ = 0;
  spec_hits_win_ = 0;
  spec_misses_win_ = 0;
  rollback_ns_win_ = 0;
  if (tuning_.spec_horizon_ps <= 0 || !spec_ckpt_.installed()) {
    return false;
  }
  // Speculation re-executes a stretch after a rollback; without deterministic
  // tie-breaking the re-run could legally diverge, voiding the transparency
  // contract. Infinite lookahead means windows already extend to the global
  // horizon (nothing to speculate past); non-positive lookahead would make
  // the per-LP arrival check ambiguous at t=0 ties.
  if (!config_.deterministic) {
    return false;
  }
  const Time la = partition_.lookahead;
  if (la.IsMax() || la <= Time::Zero()) {
    return false;
  }
  return spec_ckpt_.Capture();
}

void Kernel::NoteSpecAttempt(uint32_t spec_rounds, bool miss) {
  spec_rounds_win_ += spec_rounds;
  if (miss) {
    ++spec_misses_win_;
    const uint64_t t0 = Profiler::NowNs();
    spec_ckpt_.Restore();
    rollback_ns_win_ += Profiler::NowNs() - t0;
  } else {
    spec_hits_win_ += spec_rounds;
  }
}

RunResult Kernel::FinishRun(const char* kernel_name, uint32_t executors,
                            uint64_t wall_ns, Time stop, RunReason reason) {
  // Every kernel reaches here with its executors quiesced (the pool's Run
  // has returned; for the engine kernels that means the combining tree's
  // final reduction released everyone) — the window boundary where sharded
  // per-executor state merges race-free.
  if (window_end_hook_) {
    window_end_hook_();
  }
  run_summary_ = RunSummary{};
  run_summary_.kernel = kernel_name;
  run_summary_.executors = executors;
  run_summary_.lps = num_lps();
  run_summary_.rounds = rounds_;
  run_summary_.events = processed_events_;
  run_summary_.wall_ns = wall_ns;
  run_summary_.window_index = session_windows_;
  run_summary_.window_start_ps = session_now_.ps();
  run_summary_.window_stop_ps = stop.ps();
  run_summary_.reason = RunReasonName(reason);
  run_summary_.forked_from = lineage_;
  run_summary_.tuning_epoch = tuning_.epoch;
  run_summary_.sched_period = tuning_.sched_period;
  run_summary_.parties = tuning_.parties;
  run_summary_.migrations = window_migrations_;
  run_summary_.ownership_epoch = pmap_.epoch();
  run_summary_.spec_rounds = spec_rounds_win_;
  run_summary_.spec_hits = spec_hits_win_;
  run_summary_.spec_misses = spec_misses_win_;
  run_summary_.rollback_ns = rollback_ns_win_;
  if (profiler_ != nullptr && profiler_->enabled) {
    run_summary_.processing_ns = profiler_->TotalProcessingNs();
    run_summary_.synchronization_ns = profiler_->TotalSyncNs();
    run_summary_.messaging_ns = profiler_->TotalMessagingNs();
  }

  // Roll the window into the session. An early stop leaves events below
  // `stop` unexecuted, so it advances neither the session clock nor the
  // resume floor (the floor additionally rewinds to zero: fully conservative
  // restart state for the null-message kernel's channel clocks).
  session_events_ += processed_events_;
  session_rounds_ += rounds_;
  ++session_windows_;
  if (reason == RunReason::kStopRequested) {
    resume_floor_ = Time::Zero();
  } else {
    session_now_ = std::max(session_now_, stop);
    resume_floor_ = session_now_;
  }

  if (trace_ != nullptr && trace_->enabled) {
    trace_->EndRun(run_summary_, profiler_);
  }
  return RunResult{reason, session_now_, processed_events_, rounds_};
}

}  // namespace unison
