// Pooled in-memory window checkpoint for speculative execution.
//
// Speculation (DESIGN.md §3k) lets the round kernels run past the Eq. 2 LBTS
// bound and roll back on a causality miss. The rollback target is the
// dynamic section of a USNP session snapshot captured at the window
// boundary: mutable model state only (link up/delay, LP clocks + FELs,
// device/queue/TCP state, monitor counters, flow-source streams), without
// the static section a window cannot change (SimConfig, topology, CDF
// specs, session accumulators). The byte buffer is pooled — capture clears
// it but keeps its capacity, so steady-state windows re-serialize into
// already-owned storage with no allocation once the high-water mark is
// reached.
//
// The serialization itself lives in src/net/session.cc (the same dynamic
// walk a snapshot writes, and the same in-place apply a restore runs); the
// kernel layer sees only the two hooks installed by Network::Finalize.
// Capture may refuse (return false) when the session holds state the format
// cannot represent (lambda events such as progress tickers); the kernel then
// falls back to conservative execution for that window — speculation is an
// optimization, never a requirement.
#ifndef UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_
#define UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace unison {

class SpecCheckpoint {
 public:
  // Serializes the session's mutable window state into the pooled buffer;
  // false = state not representable, caller must not speculate this window.
  using CaptureFn = std::function<bool(std::vector<uint8_t>*)>;
  // Restores the session, in place, to the captured state.
  using RestoreFn = std::function<void(const std::vector<uint8_t>&)>;

  void InstallHooks(CaptureFn capture, RestoreFn restore) {
    capture_ = std::move(capture);
    restore_ = std::move(restore);
  }
  bool installed() const { return static_cast<bool>(capture_); }

  // Captures a checkpoint at the current window boundary. Returns false (and
  // invalidates any prior checkpoint) when no hooks are installed or the
  // capture hook refuses.
  bool Capture();

  // Rolls the session back to the last captured checkpoint. The checkpoint
  // stays valid — a window may in principle be re-rolled, though the kernels'
  // retry loop only ever restores once per window.
  void Restore();

  bool valid() const { return valid_; }
  uint64_t captures() const { return captures_; }
  uint64_t restores() const { return restores_; }
  size_t buffer_size() const { return buf_.size(); }
  size_t buffer_capacity() const { return buf_.capacity(); }

 private:
  CaptureFn capture_;
  RestoreFn restore_;
  std::vector<uint8_t> buf_;
  bool valid_ = false;
  uint64_t captures_ = 0;
  uint64_t restores_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_
