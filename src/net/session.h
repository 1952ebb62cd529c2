// Warm-prefix checkpointing: snapshot a windowed session at a window
// boundary and fork it into independent what-if branches.
//
// A scenario sweep that varies only post-t_k conditions (a failed link,
// different RED/ECN thresholds, extra injected load) used to pay the full
// [0, t_k) warm-up once per branch. Session::Snapshot captures the complete
// session state at a window boundary into a versioned in-memory buffer (USNP
// v5) of two sections. The static section holds what no window can change:
// config, topology, partition, tunables, ownership, the kernel's session
// accumulators and the flow-source specs. The dynamic section holds every
// LP's future event list and tie-break counters, model state (TCP
// connections, queue occupancies and RED marker state, streaming
// flow-source RNGs) and statistics; it is byte for byte the speculation
// window checkpoint below, written and applied by the same code.
// Session::Fork materializes a fresh Network from it; each branch then
// diverges via the normal session API (InjectTraffic, Network::FailLink,
// ForkOptions::mutate_queue) and runs to its own horizon.
//
// Fork transparency is the contract: Snapshot at window k + Fork + Run to T
// produces bit-identical results (FlowMonitor fingerprint, event counts) to
// one monolithic session run to T — for every kernel and thread count. It
// holds because the snapshot is taken at a window boundary, the only point
// where the session is quiescent: no executor is mid-round, cross-LP
// mailboxes are empty (Snapshot verifies this and fatals otherwise), and the
// deterministic EventKey total order makes the restored FELs dequeue
// identically regardless of heap layout.
//
// Forked branches reuse the parent's warm executor pool by default
// (ForkOptions::share_executors): the child kernel borrows the pool at
// Setup, so forking and running N branches spawns zero new OS threads. Two
// constraints follow: the parent Network must outlive its forks, and only
// one of {parent, forks} may be inside Run() at a time (ExecutorPool::Run is
// not reentrant). Snapshots also serialize to disk (SaveTo/LoadFrom) as a
// resume format for long simulations; Session::Restore rebuilds a network
// cold, with its own pool.
//
// Not serializable (Snapshot fatals with a description): distance-vector
// routing state, packets carrying control payloads, and ad-hoc lambda events
// (every model event type is a named functor in src/net/model_events.h;
// user-scheduled lambdas — progress tickers, test callbacks — are not).
#ifndef UNISON_SRC_NET_SESSION_H_
#define UNISON_SRC_NET_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/network.h"

namespace unison {

// An immutable captured session: a versioned little-endian binary buffer
// (magic "USNP"). Value type — copy, store, ship to disk.
class SessionSnapshot {
 public:
  SessionSnapshot() = default;
  explicit SessionSnapshot(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size_bytes() const { return bytes_.size(); }

  // FNV-1a over the buffer; identifies the snapshot in lineage tags
  // (RunSummary::forked_from) and in equality checks between snapshots.
  uint64_t Digest() const;

  // On-disk resume format: the buffer, verbatim. Fatal on I/O failure.
  void SaveTo(const std::string& path) const;
  static SessionSnapshot LoadFrom(const std::string& path);

 private:
  std::vector<uint8_t> bytes_;
};

// Per-fork divergence applied while the branch network is being rebuilt —
// before any queue object exists, so mutated disciplines (e.g. a lower DCTCP
// K, different RED thresholds) govern the branch from its first restored
// packet.
struct ForkOptions {
  // Applied to the restored SimConfig's default QueueConfig and to every
  // recorded per-link QueueConfig.
  std::function<void(QueueConfig&)> mutate_queue;
  // Borrow the parent kernel's executor pool (zero thread respawns). The
  // parent must outlive the fork and the two must not Run concurrently.
  bool share_executors = true;
};

// Snapshot/fork facade over a finalized, window-quiescent Network.
class Session {
 public:
  // `net` must be finalized and outside Run() (between windows). Not owned.
  explicit Session(Network* net) : net_(net) {}

  // Captures the full session state. Execution-neutral for the parent: the
  // only mutation is draining kernel-private transport residue into the
  // owning FELs (null-message channels), which the next window's receive
  // phase would do identically.
  SessionSnapshot Snapshot();

  // Snapshot() without the fatal: nullopt when the session holds state the
  // format cannot represent (a pending progress ticker, DV routing). The
  // auto-checkpoint path skips such boundaries.
  std::optional<SessionSnapshot> TrySnapshot();

  // Rebuilds an independent Network from `snap`, sharing the parent's warm
  // executor pool per `opts`. The fork's next Run() continues exactly where
  // the captured session paused; its RunSummary carries
  // forked_from = "snap-<digest>@w<windows>".
  std::unique_ptr<Network> Fork(const SessionSnapshot& snap,
                                const ForkOptions& opts = {});

  // Cold restore with no parent (e.g. resuming a long simulation from a
  // SaveTo file in a fresh process). The restored network owns its pool.
  static std::unique_ptr<Network> Restore(const SessionSnapshot& snap);

 private:
  Network* net_;
};

// --- Window checkpoints for speculative execution (DESIGN.md §3k) ---
//
// The window checkpoint is the dynamic section of a USNP snapshot, byte for
// byte: what speculative rounds can mutate within one Run() window — per-link
// up/delay (a global may flip a link mid-window), LP clocks/counters/FELs,
// per-node device, queue, RED and TCP endpoint state, the sharded
// FlowMonitor, streaming flow-source RNG cursors. It restores *in place* on
// the same finalized Network, through the same apply a snapshot restore
// runs. The static section (SimConfig, topology, partition, tunables,
// ownership, session accumulators, CDF specs) is skipped, which is what
// makes capture cheap enough to run at every window boundary.

// Serializes the checkpoint into `out` (cleared, capacity kept — the pooled
// buffer lives in SpecCheckpoint). Returns false, leaving the session
// untouched and `out` empty, when the state is not representable (lambda
// events such as progress tickers, control-payload packets, DV routing) —
// the kernel then runs the window conservatively.
bool CaptureWindowCheckpoint(Network& net, std::vector<uint8_t>* out);

// Rolls the live session back to the captured state. Requires the same
// finalized Network the capture ran on, quiescent at a window boundary
// (which a speculation abort guarantees: misses latch between rounds, after
// all mailboxes drained).
void RestoreWindowCheckpoint(Network& net, const std::vector<uint8_t>& buf);

}  // namespace unison

#endif  // UNISON_SRC_NET_SESSION_H_
