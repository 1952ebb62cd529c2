// Kernel interface shared by the sequential DES kernel, the two PDES
// baselines (barrier synchronization, null message), Unison, and the hybrid
// distributed kernel.
//
// A kernel owns the logical processes produced by a partition, the public LP
// for global events (§4.2), and the run loop. Network models never talk to a
// kernel directly; they go through the Simulator facade, which is what makes
// kernel choice transparent to model code.
#ifndef UNISON_SRC_KERNEL_KERNEL_H_
#define UNISON_SRC_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/control/tunables.h"
#include "src/core/event.h"
#include "src/core/time.h"
#include "src/kernel/engine/cpu_topology.h"
#include "src/kernel/engine/spec_checkpoint.h"
#include "src/kernel/lp.h"
#include "src/partition/graph.h"
#include "src/partition/partition_map.h"
#include "src/stats/profiler.h"
#include "src/stats/trace.h"

namespace unison {

enum class KernelType {
  kSequential,
  kBarrier,
  kNullMessage,
  kUnison,
  kHybrid,
};

enum class SchedulingMetric {
  kNone,                 // No scheduling: LPs claimed in id order.
  kByPendingEventCount,  // Estimate = events already scheduled in the window.
  kByLastRoundTime,      // Estimate = measured processing time of last round.
};

// Why a Run() window ended. The distinction matters for sessions: a window
// boundary is a pause (events remain, the next Run continues the same
// simulation), exhaustion and stop requests are terminal for the workload
// installed so far — though more work may still be injected and run.
enum class RunReason {
  kWindowReached,  // The stop time was hit with events still pending.
  kExhausted,      // Every FEL drained: nothing left to execute anywhere.
  kStopRequested,  // Early stop via RequestStop/Simulator::Stop.
};

// Returns a stable identifier ("window", "exhausted", "stop") for traces.
const char* RunReasonName(RunReason reason);

// Outcome of one Run() window on a session.
struct RunResult {
  RunReason reason = RunReason::kExhausted;
  Time end;            // Session time after this window.
  uint64_t events = 0; // Events executed in this window alone.
  uint64_t rounds = 0; // Synchronization rounds in this window alone.
};

struct KernelConfig {
  KernelType type = KernelType::kSequential;
  uint32_t threads = 1;
  SchedulingMetric metric = SchedulingMetric::kByLastRoundTime;
  // Rounds between scheduler re-sorts; 0 selects ceil(log2(#LP)) (§4.3).
  uint32_t sched_period = 0;
  // When false, event tie-breaking degrades to insertion order, replicating
  // the indeterminism of stock ns-3 PDES kernels (used by Fig. 11).
  bool deterministic = true;
  // Hybrid kernel only: number of simulated hosts ("ranks").
  uint32_t ranks = 2;
  // Automatic crash/preempt resume: every N completed Run() windows,
  // Network::Run snapshots the session to SimConfig::auto_checkpoint_path
  // (USNP SaveTo format), so a killed long sim resumes from the last
  // boundary via LoadFrom + Session::Restore instead of t=0. 0 = off.
  uint32_t auto_checkpoint_every = 0;
  // Executor placement: pin pool workers to cores per this policy (compact =
  // fill a socket before the next, hybrid ranks socket-major; scatter =
  // round-robin across sockets). kNone leaves placement to the OS. When the
  // party count exceeds the machine, placement wraps around the core list.
  AffinityPolicy affinity = AffinityPolicy::kNone;

  // Largest accepted sched_period: ceil(log2 n) tops out near 32 for any
  // representable topology, so a period beyond this is a unit error (e.g.
  // nanoseconds pasted into a round count), not a tuning choice.
  static constexpr uint32_t kMaxSchedPeriod = 1u << 20;

  // Returns an empty string when the config is usable, otherwise a
  // human-readable description of the first problem found. MakeKernel calls
  // this and treats a non-empty result as fatal.
  std::string Validate() const;
};

// Prints "unison: <message>" to stderr and aborts. The single error path for
// unusable configurations and API misuse (bad KernelConfig, AddLink after
// Finalize, ...), so every such failure looks the same to the user.
[[noreturn]] void FatalConfigError(const std::string& message);

class ExecutorPool;

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config) : config_(config) {}
  virtual ~Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Builds LPs and mailbox wiring. `graph` must outlive the kernel; it is
  // re-read when a global event reports a topology change. Starts a fresh
  // session: session counters reset and session time rewinds to zero.
  virtual void Setup(const TopoGraph& graph, const Partition& partition);

  // Runs one window of the session: executes events with ts < `stop_time`,
  // then parks. May be called repeatedly with increasing stop times; model
  // and event state (LP clocks, FELs, tie-break sequence counters, pending
  // cross-LP messages) carries across windows, and the executor-pool threads
  // stay parked in between — no respawn per window. K windowed runs are
  // bit-identical to one monolithic run to the same stop time.
  virtual RunResult Run(Time stop_time) = 0;

  // --- Scheduling API used by the Simulator facade ---

  // Simulated time of the executing context: the current LP's clock, or zero
  // during setup.
  Time Now() const {
    const Lp* cur = Lp::Current();
    return cur != nullptr ? cur->now() : Time::Zero();
  }

  // Schedules `fn` at absolute time `abs` on the LP owning `node`.
  void ScheduleOnNode(NodeId node, Time abs, EventFn fn);

  // Schedules a global event on the public LP (topology change, stop, ...).
  void ScheduleGlobal(Time abs, EventFn fn);

  // True when the calling thread scheduled a global from an LP event since
  // its last call; clears the thread's flag. A round kernel that skips its
  // global phase when nothing is due reads it at the end of processing.
  static bool TakeGlobalScheduled();

  // Called from a global event after the topology changed: recomputes
  // lookahead values and adds mailbox wiring for new cut edges.
  void NotifyTopologyChanged();

  // Requests an early stop; takes effect at the next safe point of the
  // current window. A stop request ends one Run() — it does not poison the
  // session; the next Run() clears it and continues.
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  // --- Introspection ---

  // Number of pool executors this kernel's Run() stamps with dense ids
  // (worker 0 = the calling thread). Valid after Setup. Network::Finalize
  // uses it to size per-executor state such as the FlowMonitor's shards; the
  // sequential kernel runs on the caller outside any pool, so its events see
  // no executor id at all — 1 is a safe upper bound.
  virtual uint32_t MaxExecutors() const { return 1; }

  // Invoked at the end of every Run() window, after the final barrier
  // reduction has quiesced all executors — the single point where
  // per-executor state can be merged without synchronization. Installed by
  // Network::Finalize to fold the FlowMonitor's shard deltas.
  void set_window_end_hook(std::function<void()> hook) {
    window_end_hook_ = std::move(hook);
  }

  uint32_t num_lps() const { return static_cast<uint32_t>(lps_.size()); }
  Lp* lp(LpId id) { return lps_[id].get(); }
  Lp* public_lp() { return public_lp_.get(); }
  LpId LpOfNode(NodeId node) const { return partition_.lp_of_node[node]; }
  const Partition& partition() const { return partition_; }
  const KernelConfig& config() const { return config_; }

  // Per-window counters: what the most recent Run() executed.
  uint64_t processed_events() const { return processed_events_; }
  uint64_t rounds() const { return rounds_; }

  // --- Snapshot/fork support ---

  // Cumulative session accumulators as one value, for snapshot capture and
  // fork restore. Restoring makes the next Run() continue exactly where the
  // captured session's next window would have started.
  struct SessionState {
    Time session_now;
    Time resume_floor;
    uint64_t session_events = 0;
    uint64_t session_rounds = 0;
    uint32_t session_windows = 0;
  };
  SessionState session_state() const {
    return SessionState{session_now_, resume_floor_, session_events_,
                        session_rounds_, session_windows_};
  }
  void RestoreSessionState(const SessionState& s) {
    session_now_ = s.session_now;
    resume_floor_ = s.resume_floor;
    session_events_ = s.session_events;
    session_rounds_ = s.session_rounds;
    session_windows_ = s.session_windows;
  }

  // The executor pool this kernel's Run() drives, or nullptr for kernels
  // that run on the caller alone (sequential). A fork hands this pool to the
  // child kernel so branch runs reuse the parent's warm, already-spawned
  // workers instead of spawning their own.
  virtual ExecutorPool* executor_pool() { return nullptr; }

  // Borrow another kernel's pool. Must be called before Setup(); the pooled
  // kernels resolve it there. The lender must outlive this kernel, and the
  // two must not Run() concurrently (ExecutorPool::Run is not reentrant) —
  // Session::Fork documents both constraints.
  void set_external_pool(ExecutorPool* pool) { external_pool_ = pool; }

  // Lineage tag stamped into every subsequent RunSummary.forked_from;
  // Session::Fork sets it to "snap-<digest>@w<windows>" so traces record
  // which snapshot a branch grew from.
  void set_lineage(std::string lineage) { lineage_ = std::move(lineage); }
  const std::string& lineage() const { return lineage_; }

  // Moves any events parked in kernel-private transport into the owning
  // LPs' FELs so a snapshot sees the complete event set. At a window
  // boundary only the null-message kernel has such residue (channel events
  // belonging to the next window); the move is execution-neutral — the next
  // window's receive phase would have performed the identical inserts.
  virtual void DrainTransportForSnapshot() {}

  // --- Session introspection (cumulative across Run() windows) ---

  // Simulated time up to which the session has been run: the stop time of
  // the last completed window (unchanged by an early stop, whose precise
  // progress point is kernel-internal).
  Time session_now() const { return session_now_; }
  uint64_t session_events() const { return session_events_; }
  uint64_t session_rounds() const { return session_rounds_; }
  uint32_t session_windows() const { return session_windows_; }

  // Events executed so far; safe to call from a global event mid-run (the
  // worker counters are quiescent during the global-event phase).
  virtual uint64_t LiveEvents() const { return processed_events_; }

  // --- Live tuning (two-tier config split) ---

  // Attaches the session's tunable store. The kernel samples it once per
  // Run() window, before any worker is released; absent a store, every
  // window runs on the KernelConfig values — the two paths are equivalent
  // when the store only ever holds its config-derived seed.
  void set_tunables(const TunableStore* store) { tunables_ = store; }

  // The tunable values one Run() window actually executed with, resolved
  // from store + config defaults. Refreshed at the start of each window;
  // FinishRun stamps it into the RunSummary.
  struct WindowTuning {
    uint64_t epoch = 0;
    uint32_t sched_period = 0;
    uint32_t parties = 0;  // Kernel-native knob units (see Tunables).
    AffinityPolicy affinity = AffinityPolicy::kNone;
    int64_t spec_horizon_ps = 0;  // 0 = speculation off this window.
  };
  const WindowTuning& window_tuning() const { return tuning_; }

  // --- Speculative window execution (DESIGN.md §3k) ---

  // Installs the session-level capture/restore hooks the window checkpoint
  // serializes through. Done by Network::Finalize under speculation=auto;
  // kernels without hooks never speculate.
  void set_checkpoint_hooks(SpecCheckpoint::CaptureFn capture,
                            SpecCheckpoint::RestoreFn restore) {
    spec_ckpt_.InstallHooks(std::move(capture), std::move(restore));
  }

  // Pool/counter introspection for tests and benches: how many checkpoints
  // were captured/restored and whether the pooled buffer is being reused.
  const SpecCheckpoint& spec_checkpoint() const { return spec_ckpt_; }

  // --- Live LP ownership (PR 9) ---

  // The live lp → executor assignment this kernel resolves through. Each
  // kernel installs its own domain in Setup (barrier/nullmsg: one executor
  // per LP; unison: worker slots; hybrid: ranks; sequential: the trivial
  // single-executor map).
  const PartitionMap& partition_map() const { return pmap_; }

  // Queues ownership moves to be applied at the next window boundary, before
  // any worker is released into the window (test/tooling hook; the
  // controller's move sets travel through the TunableStore instead).
  // Executor targets are folded modulo the kernel's domain on apply.
  void StageMigrations(const std::vector<LpMove>& moves) { pmap_.Stage(moves); }

  // Ownership state handed to the controller at each window boundary: the
  // live owner array plus the per-LP processing cost of the window that just
  // completed. `movable` is false for kernels that cannot benefit from moves
  // (sequential) — the rebalance rule then stays off.
  OwnershipView ownership_view() const {
    OwnershipView v;
    v.num_executors = pmap_.num_executors();
    v.movable = ownership_movable_;
    v.owner_of_lp = &pmap_.owners();
    v.lp_cost_ns = &lp_window_cost_ns_;
    return v;
  }

  // Snapshot restore: reinstalls a captured owner array and map epoch, then
  // rebuilds the kernel's executor-local structures. The owner values are
  // folded modulo this kernel's domain, so a snapshot taken under one kernel
  // restores meaningfully under another.
  void RestoreOwnership(std::vector<uint32_t> owners, uint64_t epoch) {
    pmap_.Restore(std::move(owners), epoch);
    OnOwnershipChanged();
  }

  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() { return profiler_; }

  void set_trace(RunTrace* trace) { trace_ = trace; }
  RunTrace* trace() { return trace_; }

  // End-of-run aggregate, refreshed by every kernel at the end of Run()
  // whether or not profiling/tracing is enabled.
  const RunSummary& run_summary() const { return run_summary_; }

 protected:
  // Routes an event from `from` to a different LP. The base implementation
  // uses the wired outbox, falling back to the target's overflow box.
  // Overridden by kernels with their own transport (barrier ranks, null
  // message channels).
  virtual void ScheduleRemote(Lp* from, LpId target, Event ev);

  // Creates outboxes/inboxes for every cut edge of the partition.
  void WireMailboxes();

  // LBTS per Eq. 2: min(N_pub, min_i N_i + lookahead). Returns Time::Max()
  // when no events remain anywhere.
  Time ComputeLbts() const;

  // Executes public-LP events with ts <= `upto` (but < `stop`). Returns the
  // number of global events run.
  uint64_t RunGlobalEvents(Time upto, Time stop);

  // Start-of-window bookkeeping shared by every kernel: clears a stale stop
  // request (a stop ends one window, not the session) and records the window
  // start for the summary. RoundSync::BeginRun calls it for the engine
  // kernels; the sequential kernel calls it directly.
  void BeginWindow();

  // Window-boundary migration point, called once per Run() after the window's
  // tunables are sampled and before any worker is released: merges the
  // controller's move set (when the sampled rebalance_seq advances past the
  // last generation applied), applies everything staged, and — if ownership
  // actually changed — invokes OnOwnershipChanged() so the kernel can rebuild
  // its executor-local structures. Records the window's migration count for
  // FinishRun.
  void ApplyPendingMigrations();

  // Hook for kernels that mirror the partition map into their own structures
  // (Unison's claim domains and owned lists). Called with the pool quiescent,
  // after the map has changed (migration apply or snapshot restore) — and by
  // RoundKernel after a lane resize, which re-folds the owned lists. Default:
  // nothing — kernels that read pmap_.owned() directly need no mirror.
  virtual void OnOwnershipChanged() {}

  // Adds to an LP's processing cost for the current window. Safe from
  // concurrent workers: an LP is processed by exactly one executor at a time,
  // and rounds are barrier-separated, so writes to one index never race.
  void AddLpWindowCost(LpId lp, uint64_t ns) { lp_window_cost_ns_[lp] += ns; }

  // Fills run_summary_ from processed_events_/rounds_ and the profiler's
  // totals (when attached and enabled), rolls the window into the session
  // aggregates, and hands the completed window to the trace recorder. Every
  // kernel calls this at the end of Run(); the return value is Run()'s.
  RunResult FinishRun(const char* kernel_name, uint32_t executors,
                      uint64_t wall_ns, Time stop, RunReason reason);

  // Conservative lower bound for resuming conservative-synchronization state
  // (null-message channel clocks): no event pending anywhere in the session
  // lies below it. Zero for a fresh session or after an early stop.
  Time resume_floor() const { return resume_floor_; }

  // Start-of-window speculation gate, called once per Run() by the opt-in
  // round kernels after tunables are sampled, migrations are applied, and the
  // session is quiescent. Resets the window's speculation stats, then decides
  // eligibility (hooks installed, deterministic mode, finite positive
  // lookahead, sampled spec_horizon_ps > 0) and captures the checkpoint.
  // Returns true when this window may run speculative rounds.
  bool BeginSpeculativeWindow();

  // Accounts one speculation attempt: `spec_rounds` optimistic rounds ran; on
  // a miss, rolls the session back to the window checkpoint (timed into
  // rollback_ns); on a hit, the rounds commit. FinishRun stamps the window's
  // totals into the RunSummary.
  void NoteSpecAttempt(uint32_t spec_rounds, bool miss);

  // Resolves this window's tunables: live store values where published,
  // config defaults otherwise, ceil(log2 n) when the period is still 0
  // (§4.3). `default_parties` is the config-derived knob value and also the
  // ceiling — per-executor state sized at Finalize is never exceeded;
  // kernels whose party count is structural pass parties_tunable=false.
  // Every kernel calls this at the start of Run(), before workers release.
  WindowTuning SampleTuning(uint32_t default_parties,
                            bool parties_tunable = true) const;

  friend class Simulator;
  friend class RoundSync;

  KernelConfig config_;
  const TopoGraph* graph_ = nullptr;
  Partition partition_;
  std::vector<std::unique_ptr<Lp>> lps_;
  std::unique_ptr<Lp> public_lp_;
  Profiler* profiler_ = nullptr;
  RunTrace* trace_ = nullptr;
  RunSummary run_summary_;
  uint64_t processed_events_ = 0;
  uint64_t rounds_ = 0;
  // Session aggregates across Run() windows; reset by Setup.
  Time session_now_;
  Time resume_floor_;
  uint64_t session_events_ = 0;
  uint64_t session_rounds_ = 0;
  uint32_t session_windows_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::mutex public_mu_;
  std::function<void()> window_end_hook_;
  ExecutorPool* external_pool_ = nullptr;  // Borrowed; see set_external_pool.
  std::string lineage_;                    // Empty unless forked.
  const TunableStore* tunables_ = nullptr;  // Borrowed; see set_tunables.
  WindowTuning tuning_;  // What the current/last window ran with.
  // Live lp → executor assignment; each kernel installs its domain in Setup.
  PartitionMap pmap_;
  bool ownership_movable_ = false;
  // Last controller move-set generation applied (Tunables::rebalance_seq).
  uint64_t applied_rebalance_seq_ = 0;
  // LPs that changed owner at this window's boundary (for the summary).
  uint32_t window_migrations_ = 0;
  // Per-LP processing cost of the current window, reset by BeginWindow; the
  // rebalance rule's LPT input.
  std::vector<uint64_t> lp_window_cost_ns_;
  // Speculation: the pooled window checkpoint and the current window's
  // speculation stats (reset by BeginSpeculativeWindow, stamped by
  // FinishRun). Kernels without checkpoint hooks leave them all zero.
  SpecCheckpoint spec_ckpt_;
  uint32_t spec_rounds_win_ = 0;
  uint32_t spec_hits_win_ = 0;
  uint32_t spec_misses_win_ = 0;
  uint64_t rollback_ns_win_ = 0;
};

// Constructs the kernel named by `config.type`.
std::unique_ptr<Kernel> MakeKernel(const KernelConfig& config);

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_KERNEL_H_
