// Event hot-path microbenchmark: schedule + dispatch throughput on the
// packet-closure workload, std::function baseline vs the InlineFunction
// event representation (plus the bulk-drain receive path).
//
// The workload models what every link transmission does: construct an event
// whose closure captures a ~100-byte Packet by value, push it into a FEL,
// later pop it and invoke the closure. With std::function the capture
// exceeds the 16-byte SBO, so every event pays a malloc/free pair plus a
// cache miss chasing the heap pointer at dispatch. The InlineFunction event
// stores the capture inline and the FEL sifts with hole-based moves, so the
// same workload runs allocation-free.
//
// Emits BENCH_event_hotpath.json with both throughputs, the speedup, the
// inline-buffer fallback rate (must be 0 for packet closures), and the
// steady-state heap allocation counts (must be 0: the whole point of the
// inline representation and the drain-into-scratch receive path is that the
// warm hot path never touches the allocator).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/fel.h"
#include "src/core/inline_function.h"
#include "src/kernel/lp.h"
#include "src/net/packet.h"

// Counting operator new replacements: every heap allocation in the process
// bumps the counter, so a delta of zero around a measured region proves the
// region is allocation-free — closures, FEL growth, scratch buffers, all of
// it. Deletes are not counted; steady state is defined by allocations alone.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

inline void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace unison;
using namespace unison::bench;

namespace {

uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// Allocations inside the most recent RunScheduleDispatch timed loop.
uint64_t g_timed_allocs = 0;

// Defeats dead-code elimination of the dispatched closures.
volatile uint64_t g_sink = 0;

// The seed's event representation: callback behind std::function.
struct BaselineEvent {
  EventKey key;
  NodeId node = kNoNode;
  std::function<void()> fn;
};

// The seed's FEL: swap-chain binary heap, per-event pushes. Templated so the
// baseline measurement runs the exact pre-optimization algorithm on the
// baseline event type.
template <typename Ev>
class SwapHeap {
 public:
  void Push(Ev ev) {
    heap_.push_back(std::move(ev));
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!(heap_[i].key < heap_[parent].key)) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  Ev Pop() {
    Ev top = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      size_t smallest = i;
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      if (l < n && heap_[l].key < heap_[smallest].key) {
        smallest = l;
      }
      if (r < n && heap_[r].key < heap_[smallest].key) {
        smallest = r;
      }
      if (smallest == i) {
        return top;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  bool Empty() const { return heap_.empty(); }

 private:
  std::vector<Ev> heap_;
};

Packet MakePacket(uint64_t i) {
  Packet pkt;
  pkt.kind = PacketKind::kTcpData;
  pkt.flow_id = static_cast<uint32_t>(i);
  pkt.src = static_cast<NodeId>(i & 0xff);
  pkt.dst = static_cast<NodeId>((i >> 8) & 0xff);
  pkt.size_bytes = kMss + kHeaderBytes;
  pkt.seq = i * kMss;
  pkt.payload = kMss;
  pkt.ts = Time::Nanoseconds(static_cast<int64_t>(i));
  return pkt;
}

EventKey MakeKey(uint64_t ts_ps, uint64_t seq) {
  return EventKey{Time::Picoseconds(static_cast<int64_t>(ts_ps)), Time::Zero(),
                  static_cast<NodeId>(seq & 0x3f), seq};
}

// Steady-state schedule/dispatch loop: keep `depth` events in flight; each
// iteration pops the earliest event, dispatches its packet closure, and
// schedules a replacement one delta later — the FEL access pattern of a
// saturated link. Returns events per second.
template <typename Heap, typename MakeEv>
double RunScheduleDispatch(size_t depth, uint64_t ops, const MakeEv& make_event) {
  Heap heap;
  uint64_t seq = 0;
  for (size_t i = 0; i < depth; ++i) {
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  {
    // One untimed cycle reaches the true steady state before the allocation
    // snapshot: the FEL's slot free list grows on the very first Pop.
    auto ev = heap.Pop();
    ev.fn();
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  const uint64_t allocs0 = HeapAllocs();
  const uint64_t t0 = Profiler::NowNs();
  for (uint64_t i = 0; i < ops; ++i) {
    auto ev = heap.Pop();
    ev.fn();
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  const uint64_t dt = Profiler::NowNs() - t0;
  g_timed_allocs = HeapAllocs() - allocs0;
  while (!heap.Empty()) {
    heap.Pop();
  }
  return dt == 0 ? 0.0 : static_cast<double>(ops) * 1e9 / static_cast<double>(dt);
}

BaselineEvent MakeBaselineEvent(const EventKey& key, uint64_t i) {
  Packet pkt = MakePacket(i);
  return BaselineEvent{key, pkt.dst,
                       [pkt = std::move(pkt)]() mutable { g_sink = g_sink + pkt.seq; }};
}

Event MakeInlineEvent(const EventKey& key, uint64_t i) {
  Packet pkt = MakePacket(i);
  const NodeId node = pkt.dst;
  return Event{key, node, [pkt = std::move(pkt)]() mutable { g_sink = g_sink + pkt.seq; }};
}

// Receive-phase drain: `batch` events arrive in a mailbox vector and move
// into a FEL holding `depth` events. Per-event pushes vs bulk PushAll.
double RunDrain(size_t depth, size_t batch, uint64_t reps, bool bulk) {
  FutureEventList fel;
  uint64_t seq = 0;
  uint64_t total_ns = 0;
  std::vector<Event> inbox;
  for (uint64_t r = 0; r < reps; ++r) {
    fel.Clear();
    for (size_t i = 0; i < depth; ++i) {
      fel.Push(MakeInlineEvent(MakeKey(1000 + 7 * seq, seq), seq));
      ++seq;
    }
    inbox.clear();
    for (size_t i = 0; i < batch; ++i) {
      inbox.push_back(MakeInlineEvent(MakeKey(500 + 3 * seq, seq), seq));
      ++seq;
    }
    const uint64_t t0 = Profiler::NowNs();
    if (bulk) {
      fel.PushAll(inbox);
    } else {
      for (Event& ev : inbox) {
        fel.Push(std::move(ev));
      }
      inbox.clear();
    }
    total_ns += Profiler::NowNs() - t0;
  }
  return total_ns == 0
             ? 0.0
             : static_cast<double>(batch * reps) * 1e9 / static_cast<double>(total_ns);
}

// Overflow slow path at steady state: Push a batch into the LP's OverflowBox,
// DrainInto the LP's reusable scratch, bulk-push into the FEL, dispatch.
// After warm cycles every buffer (box, scratch, FEL) sits at its high-water
// capacity, so the measured cycles must not allocate at all.
uint64_t OverflowDrainSteadyStateAllocs(size_t batch, int warm_cycles,
                                        int measured_cycles) {
  Lp lp(0, /*deterministic=*/true);
  uint64_t seq = 0;
  auto cycle = [&] {
    for (size_t i = 0; i < batch; ++i) {
      lp.overflow().Push(MakeInlineEvent(MakeKey(1000 + 7 * seq, seq), seq));
      ++seq;
    }
    lp.DrainInboxes();
    lp.ProcessUntil(Time::Picoseconds(INT64_MAX));
  };
  for (int i = 0; i < warm_cycles; ++i) {
    cycle();
  }
  const uint64_t allocs0 = HeapAllocs();
  for (int i = 0; i < measured_cycles; ++i) {
    cycle();
  }
  return HeapAllocs() - allocs0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ops_arg =
      GetOpt(argc, argv, "--ops",
             HasFlag(argc, argv, "--quick") ? "200000" : "1000000");
  uint64_t ops = 0;
  try {
    size_t used = 0;
    ops = std::stoull(ops_arg, &used);
    if (used != ops_arg.size() || ops == 0) {
      throw std::invalid_argument(ops_arg);
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: --ops requires a positive integer, got '%s'\n",
                 ops_arg.c_str());
    return 2;
  }
  const std::vector<size_t> depths = {256, 4096};

  std::printf("Event hot path: schedule+dispatch throughput, packet-closure "
              "workload (%llu ops/config)\n\n",
              static_cast<unsigned long long>(ops));

  Table table({"fel depth", "std::function Mev/s", "inline Mev/s", "speedup",
               "fallbacks", "allocs"});
  double worst_speedup = 1e30;
  double baseline_mops = 0;
  double inline_mops = 0;
  uint64_t packet_fallbacks = 0;
  uint64_t steady_state_allocs = 0;
  for (const size_t depth : depths) {
    // Warm up both paths once so allocator and cache state are comparable.
    RunScheduleDispatch<SwapHeap<BaselineEvent>>(depth, ops / 10, MakeBaselineEvent);
    const double base =
        RunScheduleDispatch<SwapHeap<BaselineEvent>>(depth, ops, MakeBaselineEvent);

    RunScheduleDispatch<FutureEventList>(depth, ops / 10, MakeInlineEvent);
    InlineFunctionStats::ResetAllocFallbacks();
    const double inl =
        RunScheduleDispatch<FutureEventList>(depth, ops, MakeInlineEvent);
    const uint64_t fallbacks = InlineFunctionStats::alloc_fallbacks();
    // The inline timed loop pops and re-pushes at a fixed depth: the FEL is
    // at its high-water capacity and every closure fits the inline buffer,
    // so the loop must be allocation-free.
    const uint64_t allocs = g_timed_allocs;
    steady_state_allocs += allocs;

    const double speedup = base == 0 ? 0 : inl / base;
    worst_speedup = std::min(worst_speedup, speedup);
    if (depth == depths.front()) {
      baseline_mops = base * 1e-6;
      inline_mops = inl * 1e-6;
      packet_fallbacks = fallbacks;
    }
    table.Row({Fmt("%zu", depth), Fmt("%.2f", base * 1e-6), Fmt("%.2f", inl * 1e-6),
               Fmt("%.2fx", speedup), Fmt("%llu", static_cast<unsigned long long>(fallbacks)),
               Fmt("%llu", static_cast<unsigned long long>(allocs))});
  }
  table.Print();

  // Oversized captures must still work, via the counted heap fallback.
  InlineFunctionStats::ResetAllocFallbacks();
  {
    struct Big {
      unsigned char blob[256] = {1};
    } big;
    EventFn oversized = [big]() { g_sink = g_sink + big.blob[0]; };
    oversized();
  }
  const uint64_t oversize_fallbacks = InlineFunctionStats::alloc_fallbacks();

  const size_t drain_batch = 512;
  const uint64_t drain_reps = std::max<uint64_t>(1, ops / (drain_batch * 8));
  const double drain_per_event = RunDrain(2048, drain_batch, drain_reps, false);
  const double drain_bulk = RunDrain(2048, drain_batch, drain_reps, true);
  std::printf("\nReceive-phase drain (%zu-event batches into a 2048-event FEL):\n",
              drain_batch);
  Table drain({"path", "Mev/s"});
  drain.Row({"per-event Push", Fmt("%.2f", drain_per_event * 1e-6)});
  drain.Row({"bulk PushAll", Fmt("%.2f", drain_bulk * 1e-6)});
  drain.Print();

  const uint64_t overflow_allocs =
      OverflowDrainSteadyStateAllocs(/*batch=*/256, /*warm_cycles=*/4,
                                     /*measured_cycles=*/32);
  std::printf("\noverflow Push -> DrainInto -> PushAll steady-state allocations: "
              "%llu (expected 0)\n",
              static_cast<unsigned long long>(overflow_allocs));

  std::printf("oversize-capture fallbacks counted: %llu (expected 1)\n",
              static_cast<unsigned long long>(oversize_fallbacks));
  const bool pass = worst_speedup >= 1.2 && packet_fallbacks == 0 &&
                    steady_state_allocs == 0 && overflow_allocs == 0;
  std::printf("%s: worst speedup %.2fx (target >= 1.20x), packet fallback rate "
              "%llu, steady-state allocs %llu\n",
              pass ? "PASS" : "FAIL", worst_speedup,
              static_cast<unsigned long long>(packet_fallbacks),
              static_cast<unsigned long long>(steady_state_allocs + overflow_allocs));

  FILE* out = std::fopen("BENCH_event_hotpath.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"workload\": \"packet-closure schedule+dispatch\",\n"
                 "  \"ops_per_config\": %llu,\n"
                 "  \"baseline_std_function_mops\": %.3f,\n"
                 "  \"inline_function_mops\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"worst_speedup\": %.3f,\n"
                 "  \"packet_closure_fallbacks\": %llu,\n"
                 "  \"packet_closure_fallback_rate\": %.6f,\n"
                 "  \"oversize_capture_fallbacks\": %llu,\n"
                 "  \"steady_state_allocs\": %llu,\n"
                 "  \"overflow_drain_allocs\": %llu,\n"
                 "  \"drain_per_event_mops\": %.3f,\n"
                 "  \"drain_bulk_mops\": %.3f,\n"
                 "  \"event_inline_bytes\": %zu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 static_cast<unsigned long long>(ops), baseline_mops, inline_mops,
                 baseline_mops == 0 ? 0.0 : inline_mops / baseline_mops, worst_speedup,
                 static_cast<unsigned long long>(packet_fallbacks),
                 static_cast<double>(packet_fallbacks) / static_cast<double>(ops),
                 static_cast<unsigned long long>(oversize_fallbacks),
                 static_cast<unsigned long long>(steady_state_allocs),
                 static_cast<unsigned long long>(overflow_allocs),
                 drain_per_event * 1e-6, drain_bulk * 1e-6, kEventFnInlineBytes,
                 pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_event_hotpath.json\n");
  }
  return pass ? 0 : 1;
}
