#include "src/net/session.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/kernel/kernel.h"
#include "src/net/link.h"
#include "src/net/model_events.h"
#include "src/net/node.h"
#include "src/net/queue.h"
#include "src/net/tcp.h"
#include "src/stats/flow_monitor.h"
#include "src/traffic/cdf.h"
#include "src/traffic/flow_source.h"

namespace unison {
namespace {

// USNP v7: little-endian, field-by-field, no alignment padding. The version
// gates the whole buffer — any layout change bumps it; there is no partial
// compatibility. v2 added the live-tuning plane, v3 the realized
// LP-ownership map, v4 the speculation plane. v5 splits the buffer into a
// static section (SimConfig, topology, partition, injection epoch,
// ownership, session accumulators, flow-source specs) and a dynamic section
// that is byte for byte the speculation window checkpoint, so one writer and
// one in-place apply serve fork, resume and rollback. v6 drops the placement
// policy, the re-sort period and window horizon tunables and their
// controller settings, and encodes every remaining ControllerConfig field.
// v7 drops the tunable block (the parties and horizon rules are gone) and
// adds the staged LP moves to the ownership block, so a fork taken between a
// rebalance decision and the next window migrates like its parent.
constexpr uint8_t kMagic[4] = {'U', 'S', 'N', 'P'};
constexpr uint32_t kVersion = 7;

constexpr const char* kLambdaEvent =
    "a pending event is not a named model event (see "
    "src/net/model_events.h); ad-hoc lambda events — progress tickers, "
    "user-scheduled callbacks — cannot be snapshot-serialized";
constexpr const char* kControlPayload =
    "a captured packet carries an opaque control payload (routing "
    "protocol traffic); control-plane state is not snapshot-serializable";

[[noreturn]] void SnapshotFatal(const std::string& message) {
  FatalConfigError("Session: " + message);
}

// The two archives share their field calls, so each struct has one Io()
// encoder: the Writer takes field values, the Reader fills field references.
class Writer {
 public:
  static constexpr bool kReading = false;

  Writer() = default;
  // Pooled-buffer variant: adopts `reuse`'s allocation (cleared, capacity
  // kept) so a per-window capture into a recycled buffer never reallocates
  // once the pool has warmed up.
  explicit Writer(std::vector<uint8_t> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void U8(auto v) { Put(static_cast<uint8_t>(v)); }
  template <typename E>
  void Enum(auto v, E /*last*/) { U8(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U16(auto v) { Put(static_cast<uint16_t>(v)); }
  void U32(auto v) { Put(static_cast<uint32_t>(v)); }
  void U64(auto v) { Put(static_cast<uint64_t>(v)); }
  void I64(auto v) { Put(static_cast<int64_t>(v)); }
  void F64(double v) { Put(v); }
  void TimeVal(Time t) { I64(t.ps()); }
  void Str(const std::string& s) {
    U32(s.size());
    Raw(s.data(), s.size());
  }
  // An element count, and an id below `bound`: plain U32s on the wire.
  void Count(uint32_t n, size_t /*min_bytes*/) { U32(n); }
  void Id(uint32_t v, uint32_t /*bound*/) { U32(v); }
  void Node(NodeId v) { U32(v); }
  void FlowId(uint32_t v) { U32(v); }
  void set_num_nodes(uint32_t /*n*/) {}

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void Put(T v) {
    Raw(&v, sizeof v);
  }
  void Raw(const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  void U8(T& v) { v = static_cast<T>(Get<uint8_t>()); }
  void Bool(bool& v) { v = Get<uint8_t>() != 0; }
  // A one-byte enumerator: anything past `last` is a corrupt buffer, never a
  // value that no switch over the enum handles.
  template <typename T, typename E>
  void Enum(T& v, E last) {
    const uint8_t b = Get<uint8_t>();
    if (b > static_cast<uint8_t>(last)) {
      SnapshotFatal("decoded enumerator " + std::to_string(b) +
                    " out of range (corrupt file or version skew)");
    }
    v = static_cast<T>(b);
  }
  template <typename T>
  void U16(T& v) { v = static_cast<T>(Get<uint16_t>()); }
  template <typename T>
  void U32(T& v) { v = static_cast<T>(Get<uint32_t>()); }
  template <typename T>
  void U64(T& v) { v = static_cast<T>(Get<uint64_t>()); }
  template <typename T>
  void I64(T& v) { v = static_cast<T>(Get<int64_t>()); }
  void F64(double& v) { v = Get<double>(); }
  void TimeVal(Time& t) { t = Time::Picoseconds(Get<int64_t>()); }
  void Str(std::string& s) {
    const uint32_t n = Get<uint32_t>();
    Need(n);
    s.assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
  }

  uint8_t U8() { return Get<uint8_t>(); }
  bool Bool() { return U8() != 0; }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  Time TimeVal() { return Time::Picoseconds(Get<int64_t>()); }

  // An element count, rejected unless `count * min_bytes` fits in the bytes
  // left. Every count sizes an allocation or a loop, and each element takes
  // at least `min_bytes` (> 0) on the wire, so a corrupt count fails here
  // instead of reaching an allocation sized from garbage.
  template <typename T = uint32_t>
  T Count(size_t min_bytes) {
    const T n = Get<T>();
    if (n > remaining() / min_bytes) {
      SnapshotFatal("element count exceeds the snapshot buffer (corrupt file "
                    "or version skew)");
    }
    return n;
  }
  void Count(uint32_t& n, size_t min_bytes) { n = Count(min_bytes); }

  // A decoded id that indexes a live array (node, LP, port, link, flow
  // source): anything at or past `bound` is a corrupt buffer, never an
  // out-of-bounds access.
  uint32_t Id(uint32_t bound) {
    const uint32_t v = Get<uint32_t>();
    if (v >= bound) {
      SnapshotFatal("decoded id " + std::to_string(v) + " out of range [0, " +
                    std::to_string(bound) + ") (corrupt file or version skew)");
    }
    return v;
  }
  void Id(uint32_t& v, uint32_t bound) { v = Id(bound); }
  NodeId Node() { return Id(num_nodes_); }
  void Node(NodeId& v) { v = Node(); }
  void set_num_nodes(uint32_t n) { num_nodes_ = n; }

  // A flow id. Its bound is the FlowMonitor image, which decodes after the
  // packets and TCP endpoints that carry ids, so the ids are collected here
  // and checked by CheckFlowIds once the image is applied.
  uint32_t FlowId() {
    const uint32_t v = Get<uint32_t>();
    flow_ids_.push_back(v);
    return v;
  }
  void FlowId(uint32_t& v) { v = FlowId(); }
  void CheckFlowIds(const FlowMonitor& monitor) {
    for (uint32_t id : flow_ids_) {
      if (!monitor.Contains(id)) {
        SnapshotFatal("decoded flow id " + std::to_string(id) +
                      " names no restored flow record (corrupt file or "
                      "version skew)");
      }
    }
    flow_ids_.clear();
  }

  void ExpectEnd() {
    if (remaining() != 0) {
      SnapshotFatal("trailing bytes after the snapshot payload (corrupt buffer)");
    }
  }

 private:
  size_t remaining() const { return buf_.size() - pos_; }
  template <typename T>
  T Get() {
    Need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void Need(size_t n) {
    if (remaining() < n) {
      SnapshotFatal("truncated snapshot buffer (corrupt file or version skew)");
    }
  }
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
  uint32_t num_nodes_ = 0;
  std::vector<uint32_t> flow_ids_;
};

// --- One encoder per struct ---

template <typename T, typename U>
concept Is = std::same_as<std::remove_cvref_t<T>, U>;

// A sequence's length prefix; the reader sizes `v` from it. Each element
// takes at least `min_bytes` on the wire.
template <typename A, typename V>
void IoLength(A& a, V& v, size_t min_bytes) {
  uint32_t n = static_cast<uint32_t>(v.size());
  a.Count(n, min_bytes);
  if constexpr (A::kReading) {
    v.resize(n);
  }
}

// A length-prefixed sequence of structs with an Io() encoder.
template <typename A, typename V>
void IoSeq(A& a, V& v, size_t min_bytes) {
  IoLength(a, v, min_bytes);
  for (auto& e : v) {
    Io(a, e);
  }
}

void Io(auto& a, Is<QueueConfig> auto&& q) {
  a.Enum(q.kind, QueueConfig::Kind::kDctcp);
  a.U32(q.capacity_bytes);
  a.F64(q.red_min_th);
  a.F64(q.red_max_th);
  a.F64(q.red_max_p);
  a.F64(q.red_weight);
}

void Io(auto& a, Is<TcpConfig> auto&& t) {
  a.U32(t.mss);
  a.U32(t.init_cwnd_segments);
  a.TimeVal(t.min_rto);
  a.TimeVal(t.initial_rto);
  a.Bool(t.ecn);
  a.Bool(t.dctcp);
  a.F64(t.dctcp_g);
}

void Io(auto& a, Is<ControllerConfig> auto&& c) {
  a.I64(c.window_ps);
  a.U32(c.min_rounds);
  a.F64(c.rebalance_imbalance_high);
  a.U32(c.rebalance_patience);
  a.U32(c.rebalance_cooldown);
  a.F64(c.cost_ewma_alpha);
  a.I64(c.spec_horizon_initial_ps);
}

void Io(auto& a, Is<SimConfig> auto&& c) {
  a.Enum(c.kernel.type, KernelType::kHybrid);
  a.U32(c.kernel.threads);
  a.Enum(c.kernel.metric, SchedulingMetric::kByLastRoundTime);
  a.U32(c.kernel.sched_period);
  a.Bool(c.kernel.deterministic);
  a.U32(c.kernel.ranks);
  a.Enum(c.partition, PartitionMode::kSingle);
  a.U64(c.seed);
  a.Bool(c.profile);
  a.Bool(c.profile_per_round);
  a.Bool(c.profile_per_lp);
  a.Bool(c.trace);
  a.Bool(c.trace_claim_order);
  a.Enum(c.tuning, TuningMode::kAuto);
  Io(a, c.tuning_config);
  a.Enum(c.speculation, SpeculationMode::kAuto);
  a.U32(c.kernel.auto_checkpoint_every);
  a.Str(c.auto_checkpoint_path);
  Io(a, c.tcp);
  Io(a, c.queue);
}

void Io(auto& a, Is<Kernel::SessionState> auto&& s) {
  a.TimeVal(s.session_now);
  a.TimeVal(s.resume_floor);
  a.U64(s.session_events);
  a.U64(s.session_rounds);
  a.U32(s.session_windows);
}

void Io(auto& a, Is<Packet> auto&& p) {
  a.Enum(p.kind, PacketKind::kControl);
  if (p.kind == PacketKind::kControl) {
    a.U32(p.flow_id);  // Routing traffic: no flow record behind it.
  } else {
    a.FlowId(p.flow_id);
  }
  a.Node(p.src);
  a.Node(p.dst);
  a.U32(p.size_bytes);
  a.U8(p.ttl);
  a.Bool(p.ecn_capable);
  a.Bool(p.ecn_ce);
  a.U64(p.seq);
  a.U32(p.payload);
  a.Bool(p.fin);
  a.U64(p.ack);
  a.Bool(p.ece);
  a.U32(p.path_tag);
  a.TimeVal(p.ts);
  a.TimeVal(p.ts_echo);
  a.U16(p.control_kind);
}

void Io(auto& a, Is<QueueEntry> auto&& e) {
  Io(a, e.pkt);
  a.TimeVal(e.enqueue_time);
}

void Io(auto& a, Is<NodeStats> auto&& s) {
  a.U64(s.forwarded);
  a.U64(s.delivered);
  a.U64(s.no_route);
  a.U64(s.ttl_expired);
}

void Io(auto& a, Is<DeviceStats> auto&& s) {
  a.U64(s.tx_packets);
  a.U64(s.tx_bytes);
  a.U64(s.dropped_down);
}

void Io(auto& a, Is<QueueStats> auto&& s) {
  a.U64(s.enqueued);
  a.U64(s.dropped);
  a.U64(s.ecn_marked);
  a.U64(s.max_bytes);
  a.TimeVal(s.total_delay);
  a.U64(s.dequeued);
}

void Io(auto& a, Is<RedQueue::MarkerState> auto&& m) {
  a.F64(m.avg);
  a.U64(m.count_since_mark);
  a.U64(m.rng_state);
}

void Io(auto& a, Is<FlowCounters> auto&& c) {
  a.U64(c.flows);
  a.U64(c.completed);
  a.U64(c.rx_bytes);
  a.U64(c.retransmits);
  a.I64(c.fct_ps_sum);
}

void Io(auto& a, Is<FlowRecord> auto&& f) {
  a.U32(f.id);
  a.Node(f.src);
  a.Node(f.dst);
  a.U64(f.bytes);
  a.TimeVal(f.start);
  a.Bool(f.completed);
  a.TimeVal(f.fct);
  a.U64(f.retransmits);
  a.U64(f.rtt_samples);
  a.TimeVal(f.rtt_sum);
  a.U64(f.rx_bytes);
  a.TimeVal(f.last_rx);
}

template <typename A>
void Io(A& a, Is<FlowMonitor::Image> auto&& m) {
  // Each shard: a record count and its window-delta counters at least.
  a.Count(m.shards, 44);
  if constexpr (A::kReading) {
    m.records.resize(m.shards);
    m.deltas.resize(m.shards);
  }
  for (uint32_t s = 0; s < m.shards; ++s) {
    IoSeq(a, m.records[s], 20);  // id, src, dst, bytes at least.
    Io(a, m.deltas[s]);
  }
  Io(a, m.merged);
  a.U32(m.windows_merged);
}

void Io(auto& a, Is<TcpSender::Image> auto&& im) {
  a.U32(im.path_tag);
  a.Enum(im.state, TcpSender::kLastState);
  a.U64(im.snd_una);
  a.U64(im.snd_nxt);
  a.U64(im.high_tx);
  a.U64(im.cwnd);
  a.U64(im.ssthresh);
  a.U64(im.recover);
  a.U32(im.dup_acks);
  a.Bool(im.completed);
  a.U64(im.retransmits);
  a.I64(im.srtt_ps);
  a.I64(im.rttvar_ps);
  a.I64(im.rto_ps);
  a.Bool(im.rtt_valid);
  a.Bool(im.rto_pending);
  a.I64(im.rto_deadline_ps);
  a.U32(im.rto_backoff);
  a.U64(im.cwr_end);
  a.F64(im.alpha);
  a.U64(im.dctcp_bytes_acked);
  a.U64(im.dctcp_bytes_marked);
  a.U64(im.dctcp_window_end);
}

template <typename A>
void Io(A& a, Is<TcpReceiver::Image> auto&& im) {
  a.U64(im.rcv_nxt);
  uint32_t ranges = static_cast<uint32_t>(im.out_of_order.size());
  a.Count(ranges, 16);  // Start and end of each out-of-order range.
  if constexpr (A::kReading) {
    for (uint32_t i = 0; i < ranges; ++i) {
      const uint64_t start = a.U64();
      im.out_of_order[start] = a.U64();
    }
  } else {
    for (const auto& [start, end] : im.out_of_order) {
      a.U64(start);
      a.U64(end);
    }
  }
}

void Io(auto& a, Is<FlowSource::Image> auto&& im) {
  for (auto& word : im.stream.rng) {
    a.U64(word);
  }
  a.F64(im.stream.t);
  a.U32(im.pending.src_index);
  a.U32(im.pending.dst_index);
  a.U64(im.pending.bytes);
  a.TimeVal(im.pending.start);
  a.Bool(im.pending.install);
  a.U64(im.installed_flows);
  a.U64(im.total_bytes);
}

void Io(auto& a, Is<EmpiricalCdf::Point> auto&& pt) {
  a.F64(pt.bytes);
  a.F64(pt.cum_prob);
}

// A streaming flow-source set's spec, with its size CDF inlined.
struct SourceSpec {
  TrafficSpec spec;
  std::vector<EmpiricalCdf::Point> points;
};

void Io(auto& a, Is<SourceSpec> auto&& s) {
  IoLength(a, s.spec.hosts, 4);
  for (auto& host : s.spec.hosts) {
    a.Node(host);
  }
  IoSeq(a, s.points, 16);
  a.F64(s.spec.load);
  a.U64(s.spec.bisection_bps);
  a.TimeVal(s.spec.start);
  a.TimeVal(s.spec.duration);
  a.F64(s.spec.incast_ratio);
  a.U32(s.spec.victim_index);
  a.U64(s.spec.rng_stream);
  a.F64(s.spec.redirect_prob);
  a.U32(s.spec.redirect_begin);
}

// Everything a Run() window cannot change. Restore rebuilds a Network from
// it; the dynamic section then fills in the live state.
struct StaticSection {
  SimConfig config;
  uint32_t num_nodes = 0;
  std::vector<Network::LinkInfo> links;
  // The realized partition: the fork restores it as a manual partition so LP
  // numbering — and therefore the per-LP FEL sections — line up exactly,
  // independent of the original partition mode.
  uint32_t num_lps = 0;
  std::vector<LpId> lp_of_node;
  uint64_t injection_epoch = 0;
  // The realized LP-ownership map in the capturing kernel's executor domain,
  // and the moves staged for the next window (a rebalance decision, or a
  // StageMigrations call); Restore folds both modulo the restored kernel's
  // own domain.
  uint64_t ownership_epoch = 0;
  uint32_t executors = 0;
  std::vector<uint32_t> owners;
  std::vector<LpMove> staged;
  Kernel::SessionState session;
  // Registration order == serialization order, so registry indices inside
  // captured FlowArrivalEvents stay valid.
  std::vector<SourceSpec> sources;
};

template <typename A>
void Io(A& a, Is<StaticSection> auto&& s) {
  Io(a, s.config);
  // Each node has an lp_of_node entry; each link a, b, bps, delay at least.
  a.Count(s.num_nodes, 4);
  a.set_num_nodes(s.num_nodes);
  IoLength(a, s.links, 24);
  for (auto& link : s.links) {
    a.Node(link.a);
    a.Node(link.b);
    a.U64(link.bps);
    a.TimeVal(link.delay);
    a.Bool(link.stateless);
    Io(a, link.queue);
  }
  // Each LP section: now, seq, arrival_seq, event count at least.
  a.Count(s.num_lps, 32);
  if constexpr (A::kReading) {
    s.lp_of_node.resize(s.num_nodes);
  }
  for (auto& lp : s.lp_of_node) {
    a.Id(lp, s.num_lps);
  }
  a.U64(s.injection_epoch);
  a.U64(s.ownership_epoch);
  a.U32(s.executors);
  IoLength(a, s.owners, 4);
  for (auto& owner : s.owners) {
    a.Id(owner, s.executors);
  }
  // Unchecked like a live stage: the apply ignores an LP past the range and
  // folds the target.
  IoLength(a, s.staged, 8);
  for (LpMove& move : s.staged) {
    a.U32(move.lp);
    a.U32(move.to);
  }
  Io(a, s.session);
  IoSeq(a, s.sources, 72);
}

// --- Events: encoding and decoding stay a pair (decoding constructs the
// functors) ---

// The event payload dispatch: one arm per named functor in model_events.h.
// TryAs identifies the stored type by ops-table identity, so an ad-hoc
// lambda (progress ticker, user callback) falls through every arm. Returns
// why the event cannot be represented, or nullptr once it is written.
const char* PutEvent(Writer& w, Event& ev) {
  w.TimeVal(ev.key.ts);
  w.TimeVal(ev.key.sender_ts);
  w.U32(ev.key.sender_node);
  w.U64(ev.key.seq);
  w.U32(ev.node);
  if (auto* e = ev.fn.TryAs<PacketDeliverEvent>()) {
    if (e->pkt.control_data != nullptr) {
      return kControlPayload;
    }
    w.U8(ModelEventTag::kPacketDeliver);
    w.U32(e->peer);
    Io(w, e->pkt);
  } else if (auto* e = ev.fn.TryAs<TransmitCompleteEvent>()) {
    w.U8(ModelEventTag::kTransmitComplete);
    w.U32(e->node);
    w.U32(e->port);
  } else if (auto* e = ev.fn.TryAs<TcpRtoEvent>()) {
    w.U8(ModelEventTag::kTcpRto);
    w.U32(e->node);
    w.U32(e->flow_id);
  } else if (auto* e = ev.fn.TryAs<FlowStartEvent>()) {
    w.U8(ModelEventTag::kFlowStart);
    w.U32(e->flow_id);
    w.U32(e->src);
    w.U32(e->dst);
    w.U64(e->bytes);
    Io(w, e->cfg);
  } else if (auto* e = ev.fn.TryAs<FlowArrivalEvent>()) {
    w.U8(ModelEventTag::kFlowArrival);
    w.U32(e->set_index);
    w.U32(e->source_index);
  } else if (auto* e = ev.fn.TryAs<LinkUpDownEvent>()) {
    w.U8(ModelEventTag::kLinkUpDown);
    w.U32(e->link);
    w.Bool(e->up);
  } else {
    return kLambdaEvent;
  }
  return nullptr;
}

// Decodes one event and rebinds it to `net`, checking every id it carries
// against the live network.
Event GetEvent(Reader& r, Network& net) {
  Event ev;
  r.TimeVal(ev.key.ts);
  r.TimeVal(ev.key.sender_ts);
  r.U32(ev.key.sender_node);
  r.U64(ev.key.seq);
  r.U32(ev.node);
  if (ev.node != kNoNode && ev.node >= net.num_nodes()) {
    SnapshotFatal("decoded event node out of range (corrupt buffer)");
  }
  switch (static_cast<ModelEventTag>(r.U8())) {
    case ModelEventTag::kPacketDeliver: {
      PacketDeliverEvent e{&net, r.Node(), {}};
      Io(r, e.pkt);
      ev.fn = std::move(e);
      return ev;
    }
    case ModelEventTag::kTransmitComplete: {
      const NodeId node = r.Node();
      ev.fn = TransmitCompleteEvent{&net, node, r.Id(net.node(node).num_ports())};
      return ev;
    }
    case ModelEventTag::kTcpRto: {
      const NodeId node = r.Node();
      ev.fn = TcpRtoEvent{&net, node, r.U32()};
      return ev;
    }
    case ModelEventTag::kFlowStart: {
      FlowStartEvent e{&net, r.FlowId(), r.Node(), r.Node(), r.U64(), {}};
      Io(r, e.cfg);
      ev.fn = std::move(e);
      return ev;
    }
    case ModelEventTag::kFlowArrival: {
      const uint32_t set = r.Id(net.num_flow_source_sets());
      const uint32_t source = r.Id(net.flow_source_set(set)->num_sources());
      ev.fn = FlowArrivalEvent{&net, set, source};
      return ev;
    }
    case ModelEventTag::kLinkUpDown: {
      const uint32_t link = r.Id(static_cast<uint32_t>(net.links().size()));
      ev.fn = LinkUpDownEvent{&net, link, r.Bool()};
      return ev;
    }
  }
  SnapshotFatal("unknown event tag in snapshot buffer");
}

// --- The dynamic section ---

// Window-boundary quiescence is every capture's correctness premise (the
// format has no mailbox section). Null-message channels may hold events for
// the next window; move them into the owning FELs first (identical to the
// next receive phase), so the FEL walk sees the complete event set.
void Quiesce(Kernel& kernel) {
  kernel.DrainTransportForSnapshot();
  for (uint32_t i = 0; i <= kernel.num_lps(); ++i) {
    Lp* lp = i < kernel.num_lps() ? kernel.lp(i) : kernel.public_lp();
    const char* what = i < kernel.num_lps() ? "an LP" : "the public LP";
    for (const auto& outbox : lp->outboxes()) {
      if (!outbox->events.empty()) {
        SnapshotFatal(std::string("Snapshot outside a window boundary: ") +
                      what + " has undelivered mailbox events; snapshot only "
                      "between Run() windows");
      }
    }
    if (!lp->overflow().EmptyUnlocked()) {
      SnapshotFatal(std::string("Snapshot outside a window boundary: ") + what +
                    " has undelivered overflow events; snapshot only between "
                    "Run() windows");
    }
  }
}

// Writes everything a Run() window can change: link up/delay, per-LP clocks,
// counters and FELs (public LP last), node/device/queue/RED state, TCP
// endpoints, the FlowMonitor image and per-source stream state. This is the
// whole window checkpoint and the tail of a USNP snapshot. Returns why the
// state cannot be represented, or nullptr.
const char* WriteDynamic(Network& net, Writer& w) {
  // A LinkUpDown global below the conservative bound executes even in a
  // speculative attempt; a rollback must undo the flip.
  w.U32(net.links().size());
  for (const Network::LinkInfo& link : net.links()) {
    w.Bool(link.up);
    w.TimeVal(link.delay);
  }

  Kernel& kernel = net.kernel();
  const char* why = nullptr;
  w.U32(kernel.num_lps());
  for (uint32_t i = 0; i <= kernel.num_lps() && why == nullptr; ++i) {
    Lp* lp = i < kernel.num_lps() ? kernel.lp(i) : kernel.public_lp();
    w.TimeVal(lp->now());
    w.U64(lp->seq());
    w.U64(lp->arrival_seq());
    w.U64(lp->fel().Size());
    lp->fel().ForEach([&](Event& ev) {
      if (why == nullptr) why = PutEvent(w, ev);
    });
  }
  if (why != nullptr) {
    return why;
  }

  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    Io(w, node.stats());
    w.U32(node.num_ports());
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      w.Bool(dev->transmitting());
      Io(w, dev->stats());
      Io(w, dev->queue().stats());
      const std::vector<QueueEntry> entries = dev->queue().Entries();
      for (const QueueEntry& e : entries) {
        if (e.pkt.control_data != nullptr) {
          return kControlPayload;
        }
      }
      IoSeq(w, entries, 8);
      const auto* red = dynamic_cast<const RedQueue*>(&dev->queue());
      w.Bool(red != nullptr);
      if (red != nullptr) {
        Io(w, red->marker_state());
      }
    }
  }

  // TCP endpoints, sorted by flow id (the unordered_map iteration order is
  // not reproducible; the sort makes save→load→save byte-stable).
  std::vector<uint32_t> ids;
  const auto sorted_ids =
      [&ids](const auto& endpoints) -> const std::vector<uint32_t>& {
    ids.clear();
    for (const auto& [id, endpoint] : endpoints) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    w.U32(node.senders().size());
    for (uint32_t id : sorted_ids(node.senders())) {
      const TcpSender& s = *node.senders().at(id);
      w.U32(id);
      w.U32(s.dst());
      w.U64(s.size());
      Io(w, s.config());
      Io(w, s.Save());
    }
    w.U32(node.receivers().size());
    for (uint32_t id : sorted_ids(node.receivers())) {
      const TcpReceiver& recv = *node.receivers().at(id);
      w.U32(id);
      w.U32(recv.src());
      Io(w, recv.Save());
    }
  }

  Io(w, net.flow_monitor().SaveImage());

  // Streaming flow sources: stream/pending state (the specs are static).
  w.U32(net.num_flow_source_sets());
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    w.U32(set->num_sources());
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      Io(w, set->source(src).Save());
    }
  }
  return nullptr;
}

// Applies a dynamic section in place on `net`: a freshly restored network or
// the live one a speculation miss rolls back. Every count must match the
// network and every decoded id must index it.
void ApplyDynamic(Network& net, Reader& r) {
  r.set_num_nodes(net.num_nodes());
  if (r.U32() != net.links().size()) {
    SnapshotFatal("snapshot link count diverged from the topology");
  }
  for (uint32_t i = 0; i < net.links().size(); ++i) {
    const bool up = r.Bool();
    const Time delay = r.TimeVal();
    // Re-apply only actual changes: each setter recomputes routing and the
    // kernel lookahead, which is wasted work for the (typical) no-op case.
    if (net.links()[i].up != up) {
      net.SetLinkUp(i, up);
    }
    if (net.links()[i].delay != delay) {
      net.SetLinkDelay(i, delay);
    }
  }

  Kernel& kernel = net.kernel();
  if (r.U32() != kernel.num_lps()) {
    SnapshotFatal("snapshot LP count diverged from the kernel");
  }
  std::vector<Event> events;
  for (uint32_t i = 0; i <= kernel.num_lps(); ++i) {
    Lp* lp = i < kernel.num_lps() ? kernel.lp(i) : kernel.public_lp();
    lp->set_now(r.TimeVal());
    const uint64_t seq = r.U64();
    lp->RestoreCounters(seq, r.U64());
    // Each event: ts, sender_ts, sender_node, seq, node, tag at least.
    const uint64_t count = r.Count<uint64_t>(33);
    events.clear();
    events.reserve(count);
    for (uint64_t e = 0; e < count; ++e) {
      events.push_back(GetEvent(r, net));
    }
    // Straight to the FEL, bypassing Lp::Insert: the captured keys (including
    // any non-deterministic arrival rewrite the parent already applied) must
    // survive verbatim. Deterministic keys are globally unique, so the
    // rebuilt heap dequeues identically whatever its internal layout.
    lp->fel().Clear();
    lp->fel().PushAll(events);
  }

  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    NodeStats ns;
    Io(r, ns);
    node.set_stats(ns);
    if (r.U32() != node.num_ports()) {
      SnapshotFatal("snapshot port count diverged from the node");
    }
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      dev->set_transmitting(r.Bool());
      DeviceStats ds;
      Io(r, ds);
      dev->set_stats(ds);
      QueueStats qs;
      Io(r, qs);
      std::vector<QueueEntry> entries;
      IoSeq(r, entries, 8);  // enqueue_time at least.
      dev->queue().RestoreEntries(std::move(entries));
      dev->queue().set_stats(qs);
      auto* red = dynamic_cast<RedQueue*>(&dev->queue());
      if (r.Bool() != (red != nullptr)) {
        SnapshotFatal(red == nullptr
                          ? "snapshot carries RED marker state for a drop-tail "
                            "queue; mutate_queue may not change a queue's kind"
                          : "snapshot lacks RED marker state for a RED/DCTCP "
                            "queue; mutate_queue may not change a queue's kind");
      }
      if (red != nullptr) {
        RedQueue::MarkerState m;
        Io(r, m);
        red->set_marker_state(m);
      }
    }
  }

  // TCP endpoints: drop the live set wholesale and re-create the captured
  // one (speculative rounds may have created endpoints, completed flows, or
  // advanced connection state — re-creation covers all three at once).
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    node.ClearTcpEndpoints();
    const uint32_t senders = r.Count(156);  // id, dst, size, config, image.
    for (uint32_t i = 0; i < senders; ++i) {
      const uint32_t flow_id = r.FlowId();
      const NodeId dst = r.Node();
      const uint64_t bytes = r.U64();
      TcpConfig tcp;
      Io(r, tcp);
      TcpSender::Image im;
      Io(r, im);
      if (node.senders().contains(flow_id)) {
        SnapshotFatal("decoded TCP sender flow id repeats on its node (corrupt "
                      "buffer)");
      }
      node.AddSender(flow_id, std::make_unique<TcpSender>(&net, &node, flow_id,
                                                          dst, bytes, tcp))
          ->Restore(im);
    }
    const uint32_t receivers = r.Count(20);  // id, src, rcv_nxt, ooo count.
    for (uint32_t i = 0; i < receivers; ++i) {
      const uint32_t flow_id = r.FlowId();
      const NodeId src = r.Node();
      TcpReceiver::Image im;
      Io(r, im);
      if (node.receivers().contains(flow_id)) {
        SnapshotFatal("decoded TCP receiver flow id repeats on its node "
                      "(corrupt buffer)");
      }
      node.AddReceiver(flow_id, std::make_unique<TcpReceiver>(&net, &node,
                                                              flow_id, src))
          ->Restore(im);
    }
  }

  FlowMonitor::Image monitor;
  Io(r, monitor);
  if (monitor.shards != net.flow_monitor().num_shards()) {
    SnapshotFatal("snapshot flow-monitor shard count diverged from the session");
  }
  net.flow_monitor().RestoreImageInPlace(monitor);
  r.CheckFlowIds(net.flow_monitor());

  if (r.U32() != net.num_flow_source_sets()) {
    SnapshotFatal("snapshot flow-source registry diverged from the session");
  }
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    if (r.U32() != set->num_sources()) {
      SnapshotFatal("snapshot flow-source set size diverged from the session");
    }
    const size_t hosts = set->spec().hosts.size();
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      FlowSource::Image im;
      Io(r, im);
      if (im.pending.src_index >= hosts || im.pending.dst_index >= hosts) {
        SnapshotFatal("decoded flow-source host index out of range (corrupt "
                      "buffer)");
      }
      set->source(src).Restore(im);
    }
  }
  r.ExpectEnd();
}

// Encodes the whole session: header, static section, dynamic section.
// Returns why the session cannot be represented, or nullptr.
const char* WriteSession(Network& net, Writer& w) {
  if (net.dv_routing() != nullptr) {
    return "distance-vector routing state (per-node tables, in-flight control "
           "packets) is not snapshot-serializable; use global ECMP routing";
  }
  Kernel& kernel = net.kernel();
  Quiesce(kernel);
  for (uint8_t b : kMagic) {
    w.U8(b);
  }
  w.U32(kVersion);

  StaticSection s;
  s.config = net.config();
  s.num_nodes = net.num_nodes();
  s.links = net.links();
  s.num_lps = net.partition().num_lps;
  s.lp_of_node = net.partition().lp_of_node;
  s.injection_epoch = net.injection_epoch();
  const PartitionMap& pmap = kernel.partition_map();
  s.ownership_epoch = pmap.epoch();
  s.executors = pmap.num_executors();
  s.owners = pmap.owners();
  s.staged = pmap.staged();
  s.session = kernel.session_state();
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    const TrafficSpec& spec = net.flow_source_set(i)->spec();
    s.sources.push_back(SourceSpec{spec, spec.sizes->points()});
  }
  Io(w, s);
  return WriteDynamic(net, w);
}

std::unique_ptr<Network> RestoreImpl(const SessionSnapshot& snap,
                                     ExecutorPool* pool, const ForkOptions& opts) {
  Reader r(snap.bytes());
  for (uint8_t b : kMagic) {
    if (r.U8() != b) {
      SnapshotFatal("not a USNP snapshot buffer");
    }
  }
  const uint32_t version = r.U32();
  if (version != kVersion) {
    SnapshotFatal("unsupported snapshot version " + std::to_string(version) +
                  " (this build reads v" + std::to_string(kVersion) + ")");
  }
  StaticSection s;
  Io(r, s);
  if (const std::string why = s.config.kernel.Validate(); !why.empty()) {
    SnapshotFatal("decoded " + why);
  }

  // Divergence knob: mutated queue disciplines apply to the rebuilt queues
  // from their first packet. The branch's own config records the mutation.
  if (opts.mutate_queue) {
    opts.mutate_queue(s.config.queue);
    for (Network::LinkInfo& link : s.links) {
      opts.mutate_queue(link.queue);
    }
  }
  // Replay the realized partition as a manual one so LP numbering matches
  // the serialized per-LP sections (the sequential kernel forces kSingle
  // regardless, which is what it was captured with).
  const bool sequential = s.config.kernel.type == KernelType::kSequential;
  if (!sequential) {
    s.config.partition = PartitionMode::kManual;
  }

  auto net = std::make_unique<Network>(s.config);
  net->AddNodes(s.num_nodes);
  for (const Network::LinkInfo& link : s.links) {
    net->AddLink(link.a, link.b, link.bps, link.delay, link.queue, link.stateless);
  }
  if (!sequential) {
    net->SetManualPartition(s.num_lps, s.lp_of_node);
  }
  if (pool != nullptr) {
    net->set_external_pool(pool);
  }
  net->keep_config_threads();
  net->Finalize();

  Kernel& kernel = net->kernel();
  if (kernel.num_lps() != s.num_lps) {
    SnapshotFatal("restored kernel produced a different LP count than the "
                  "snapshot recorded; partition replay failed");
  }
  kernel.RestoreSessionState(s.session);
  net->set_injection_epoch(s.injection_epoch);
  // Reinstall the parent's realized LP placement and its staged moves
  // (folded modulo this kernel's own executor domain). Results-neutral
  // either way in deterministic mode; this preserves the parent's learned
  // balance and makes the fork's next window migrate like the parent's.
  if (s.owners.size() == kernel.num_lps()) {
    kernel.RestoreOwnership(std::move(s.owners), s.ownership_epoch);
  }
  kernel.StageMigrations(s.staged);

  // No Bootstrap: each source's pending arrival already sits in a restored
  // FEL as a FlowArrivalEvent; the dynamic section rebuilds the stream state.
  for (SourceSpec& source : s.sources) {
    auto cdf = std::make_shared<EmpiricalCdf>(std::move(source.points));
    source.spec.sizes = cdf.get();
    net->Keep(cdf);  // The set's spec points at it for the network's lifetime.
    net->RegisterFlowSourceSet(
        std::make_shared<FlowSourceSet>(net.get(), std::move(source.spec)));
  }

  ApplyDynamic(*net, r);

  char lineage[48];
  std::snprintf(lineage, sizeof lineage, "snap-%016llx@w%u",
                static_cast<unsigned long long>(snap.Digest()),
                s.session.session_windows);
  kernel.set_lineage(lineage);
  return net;
}

}  // namespace

// --- SessionSnapshot ---

uint64_t SessionSnapshot::Digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes_) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SessionSnapshot::SaveTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    SnapshotFatal("SaveTo cannot open " + path);
  }
  const size_t written = bytes_.empty()
                             ? 0
                             : std::fwrite(bytes_.data(), 1, bytes_.size(), f);
  const bool ok = written == bytes_.size() && std::fclose(f) == 0;
  if (!ok) {
    SnapshotFatal("SaveTo failed writing " + path);
  }
}

SessionSnapshot SessionSnapshot::LoadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SnapshotFatal("LoadFrom cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(size < 0 ? 0 : static_cast<size_t>(size));
  const size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (size < 0 || got != bytes.size()) {
    SnapshotFatal("LoadFrom failed reading " + path);
  }
  return SessionSnapshot(std::move(bytes));
}

// --- Session ---

SessionSnapshot Session::Snapshot() {
  if (!net_->finalized()) {
    SnapshotFatal("Snapshot before Finalize(); open the session first");
  }
  Writer w;
  if (const char* why = WriteSession(*net_, w)) {
    SnapshotFatal(why);
  }
  return SessionSnapshot(w.Take());
}

std::optional<SessionSnapshot> Session::TrySnapshot() {
  Writer w;
  if (!net_->finalized() || WriteSession(*net_, w) != nullptr) {
    return std::nullopt;
  }
  return SessionSnapshot(w.Take());
}

std::unique_ptr<Network> Session::Fork(const SessionSnapshot& snap,
                                       const ForkOptions& opts) {
  ExecutorPool* pool =
      opts.share_executors ? net_->kernel().executor_pool() : nullptr;
  return RestoreImpl(snap, pool, opts);
}

std::unique_ptr<Network> Session::Restore(const SessionSnapshot& snap) {
  return RestoreImpl(snap, nullptr, ForkOptions{});
}

// --- Window checkpoints for speculative execution (DESIGN.md §3k) ---

bool CaptureWindowCheckpoint(Network& net, std::vector<uint8_t>* out) {
  if (!net.finalized() || net.dv_routing() != nullptr) {
    return false;
  }
  Quiesce(net.kernel());
  Writer w(std::move(*out));
  const bool ok = WriteDynamic(net, w) == nullptr;
  *out = w.Take();  // The pooled buffer goes back with its capacity.
  if (!ok) {
    out->clear();
  }
  return ok;
}

void RestoreWindowCheckpoint(Network& net, const std::vector<uint8_t>& buf) {
  Reader r(buf);
  ApplyDynamic(net, r);
}

}  // namespace unison
