#include "src/stats/flow_monitor.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "src/core/executor_id.h"

namespace unison {

namespace {

[[noreturn]] void MonitorFatal(const char* message) {
  std::fprintf(stderr, "unison: FlowMonitor: %s\n", message);
  std::abort();
}

}  // namespace

FlowMonitor::FlowMonitor() { ConfigureShards(1); }

FlowMonitor::~FlowMonitor() = default;

uint32_t FlowMonitor::SegmentOf(uint32_t slot) {
  return static_cast<uint32_t>(std::bit_width((slot / kSegBase) + 1)) - 1;
}

void FlowMonitor::ConfigureShards(uint32_t shards) {
  if (shards == shards_.size()) {
    return;
  }
  for (const auto& shard : shards_) {
    if (shard->count != 0) {
      MonitorFatal(
          "ConfigureShards after flows were registered would re-split the "
          "flow-id space under live ids; configure shards before installing "
          "any flow");
    }
  }
  if (shards == 0 || shards > (1u << 16)) {
    MonitorFatal("shard count must be in [1, 65536]");
  }
  const uint32_t shard_bits =
      std::max(1u, static_cast<uint32_t>(std::bit_width(shards - 1)));
  slot_bits_ = 32 - shard_bits;  // shard_bits in [1, 16] -> slot_bits in [16, 31].
  slot_mask_ = (1u << slot_bits_) - 1;
  shards_.clear();
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint32_t FlowMonitor::CurrentShardIndex() const {
  const int ex = CurrentExecutorId();
  const uint32_t s = ex < 0 ? 0u : static_cast<uint32_t>(ex) + 1;
  if (s >= shards_.size()) {
    MonitorFatal(
        "hook called from an executor the monitor has no shard for; "
        "Network::Finalize must configure one shard per pool executor");
  }
  return s;
}

FlowMonitor::Shard& FlowMonitor::CurrentShard() {
  return *shards_[CurrentShardIndex()];
}

uint32_t FlowMonitor::Register(NodeId src, NodeId dst, uint64_t bytes, Time start) {
  const uint32_t s = CurrentShardIndex();
  Shard& shard = *shards_[s];
  const uint32_t slot = shard.count;
  if (slot > slot_mask_) {
    MonitorFatal("per-shard flow capacity exhausted (flow-id slot space)");
  }
  const uint32_t seg = SegmentOf(slot);
  if (shard.segments[seg] == nullptr) {
    // Amortized: one slab per kSegBase<<seg registrations, by the owning
    // executor only. Existing records never move (receiver-side hooks may be
    // dereferencing them from other executors right now).
    shard.segments[seg] = std::make_unique<FlowRecord[]>(SegmentSize(seg));
  }
  FlowRecord& rec = shard.segments[seg][slot - SegmentFirstSlot(seg)];
  rec = FlowRecord{};
  rec.id = (s << slot_bits_) | slot;
  rec.src = src;
  rec.dst = dst;
  rec.bytes = bytes;
  rec.start = start;
  ++shard.count;
  ++shard.delta.flows;
  return rec.id;
}

void FlowMonitor::Complete(uint32_t id, Time now) {
  FlowRecord& rec = Locate(id);
  rec.completed = true;
  rec.fct = now - rec.start;
  FlowCounters& delta = CurrentShard().delta;
  ++delta.completed;
  delta.fct_ps_sum += rec.fct.ps();
}

void FlowMonitor::AddRtt(uint32_t id, Time sample) {
  FlowRecord& rec = Locate(id);
  ++rec.rtt_samples;
  rec.rtt_sum += sample;
}

void FlowMonitor::AddRetransmit(uint32_t id) {
  ++Locate(id).retransmits;
  ++CurrentShard().delta.retransmits;
}

void FlowMonitor::AddRxBytes(uint32_t id, uint64_t n, Time now) {
  FlowRecord& rec = Locate(id);
  rec.rx_bytes += n;
  rec.last_rx = now;
  CurrentShard().delta.rx_bytes += n;
}

size_t FlowMonitor::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->count;
  }
  return total;
}

std::vector<FlowRecord> FlowMonitor::CollectFlows() const {
  std::vector<FlowRecord> out;
  out.reserve(size());
  ForEachFlow([&out](const FlowRecord& rec) { out.push_back(rec); });
  return out;
}

void FlowMonitor::MergeWindow() {
  for (const auto& shard : shards_) {
    merged_.Merge(shard->delta);
    shard->delta = FlowCounters{};
  }
  ++windows_merged_;
}

FlowSummary FlowMonitor::Summarize() const {
  FlowSummary s;
  s.flows = size();
  double fct_ms_sum = 0;
  double thr_sum = 0;
  double rtt_ms_sum = 0;
  uint64_t rtt_count = 0;
  std::vector<double> fcts;
  ForEachFlow([&](const FlowRecord& rec) {
    s.total_rx_bytes += rec.rx_bytes;
    s.total_retransmits += rec.retransmits;
    if (rec.rtt_samples > 0) {
      rtt_ms_sum += rec.rtt_sum.ToMilliseconds();
      rtt_count += rec.rtt_samples;
    }
    if (!rec.completed) {
      return;
    }
    ++s.completed;
    const double fct_ms = rec.fct.ToMilliseconds();
    fct_ms_sum += fct_ms;
    fcts.push_back(fct_ms);
    if (rec.fct.ps() > 0) {
      thr_sum += static_cast<double>(rec.bytes) * 8.0 / rec.fct.ToSeconds() / 1e6;
    }
  });
  if (s.completed > 0 && !fcts.empty()) {
    s.mean_fct_ms = fct_ms_sum / static_cast<double>(s.completed);
    s.mean_throughput_mbps = thr_sum / static_cast<double>(s.completed);
    // p99 by selection, not a full sort: summaries stay O(n) at millions of
    // flows. nth_element places the same element a sort would. The index is
    // clamped so the single-flow case (idx computes to 0) and any future
    // drift between `completed` and fcts.size() stay in bounds; with zero
    // completions every percentile/mean field keeps its zero default.
    size_t idx = static_cast<size_t>(0.99 * static_cast<double>(fcts.size() - 1));
    idx = std::min(idx, fcts.size() - 1);
    std::nth_element(fcts.begin(), fcts.begin() + static_cast<ptrdiff_t>(idx), fcts.end());
    s.p99_fct_ms = fcts[idx];
  }
  if (rtt_count > 0) {
    s.mean_rtt_ms = rtt_ms_sum / static_cast<double>(rtt_count);
  }
  return s;
}

FlowMonitor::Image FlowMonitor::SaveImage() const {
  Image image;
  image.shards = num_shards();
  image.records.resize(shards_.size());
  image.deltas.resize(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    image.records[s].reserve(shard.count);
    for (uint32_t slot = 0; slot < shard.count; ++slot) {
      image.records[s].push_back(
          const_cast<FlowMonitor*>(this)->LocateSlot(const_cast<Shard&>(shard), slot));
    }
    image.deltas[s] = shard.delta;
  }
  image.merged = merged_;
  image.windows_merged = windows_merged_;
  return image;
}

void FlowMonitor::RestoreImageInPlace(const Image& image) {
  if (image.shards != shards_.size()) {
    MonitorFatal(
        "RestoreImageInPlace shard-count mismatch; the image must come from "
        "this monitor's own configuration");
  }
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // Slots past the image's count were registered by the rounds being
    // rolled back; truncating count abandons them (slabs stay allocated —
    // the re-run re-registers into the same slots).
    const std::vector<FlowRecord>& records = image.records[s];
    for (uint32_t slot = 0; slot < records.size(); ++slot) {
      const uint32_t seg = SegmentOf(slot);
      if (shard.segments[seg] == nullptr) {
        shard.segments[seg] = std::make_unique<FlowRecord[]>(SegmentSize(seg));
      }
      shard.segments[seg][slot - SegmentFirstSlot(seg)] = records[slot];
    }
    shard.count = static_cast<uint32_t>(records.size());
    shard.delta = image.deltas[s];
  }
  merged_ = image.merged;
  windows_merged_ = image.windows_merged;
}

uint64_t FlowMonitor::Fingerprint() const {
  // FNV-1a over per-flow outcomes keyed by the flow's stable identity;
  // summation keeps the result independent of shard layout and registration
  // order, so streaming and materialized installation — and every thread
  // count — agree bit for bit.
  uint64_t h = 0;
  ForEachFlow([&h](const FlowRecord& rec) {
    uint64_t x = 0xcbf29ce484222325ULL;
    auto mix = [&x](uint64_t v) {
      x ^= v;
      x *= 0x100000001b3ULL;
    };
    mix(rec.src);
    mix(rec.dst);
    mix(rec.bytes);
    mix(static_cast<uint64_t>(rec.start.ps()));
    mix(rec.completed ? static_cast<uint64_t>(rec.fct.ps()) : 0);
    mix(rec.rx_bytes);
    mix(rec.retransmits);
    mix(static_cast<uint64_t>(rec.rtt_sum.ps()));
    h += x;
  });
  return h;
}

}  // namespace unison
