#include "src/net/session.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
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

// USNP v4: little-endian, field-by-field, no alignment padding. The version
// gates the whole buffer — any layout change bumps it; there is no partial
// compatibility. v2 added the live-tuning plane: TuningMode + ControllerConfig
// in the SimConfig block, and the tunable epoch + values next to the session
// counters, so a fork resumes with its parent's learned settings. v3 adds the
// realized LP-ownership map (partition-map epoch, executor domain, owner
// array) after the tunables block, so a fork resumes with the parent's
// migrated placement instead of the setup default. v4 adds the speculation
// plane: SpeculationMode + auto-checkpoint settings + the rebalance EWMA and
// spec-horizon controller knobs in the SimConfig block, and the live
// spec-horizon tunable in the tunables block.
constexpr uint8_t kMagic[4] = {'U', 'S', 'N', 'P'};
constexpr uint32_t kVersion = 4;

[[noreturn]] void SnapshotFatal(const std::string& message) {
  FatalConfigError("Session: " + message);
}

class Writer {
 public:
  Writer() = default;
  // Pooled-buffer variant: adopts `reuse`'s allocation (cleared, capacity
  // kept) so a per-window capture into a recycled buffer never reallocates
  // once the pool has warmed up.
  explicit Writer(std::vector<uint8_t> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I64(int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void TimeVal(Time t) { I64(t.ps()); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  uint8_t U8() {
    Need(1);
    return buf_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  uint16_t U16() { return Get<uint16_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  int64_t I64() { return Get<int64_t>(); }
  double F64() { return Get<double>(); }
  Time TimeVal() { return Time::Picoseconds(I64()); }
  std::string Str() {
    const uint32_t n = U32();
    Need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  // An element count, rejected unless `count * min_bytes` fits in the bytes
  // left. Every count sizes an allocation or a loop, and each element takes
  // at least `min_bytes` (> 0) on the wire, so a corrupt count fails here
  // instead of reaching an allocation sized from garbage.
  template <typename T>
  T Count(size_t min_bytes) {
    const T n = Get<T>();
    if (n > remaining() / min_bytes) {
      SnapshotFatal("element count exceeds the snapshot buffer (corrupt file "
                    "or version skew)");
    }
    return n;
  }

  size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  T Get() {
    Need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void Need(size_t n) {
    if (buf_.size() - pos_ < n) {
      SnapshotFatal("truncated snapshot buffer (corrupt file or version skew)");
    }
  }
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

// --- Config sections ---

void PutQueueConfig(Writer& w, const QueueConfig& q) {
  w.U8(static_cast<uint8_t>(q.kind));
  w.U32(q.capacity_bytes);
  w.F64(q.red_min_th);
  w.F64(q.red_max_th);
  w.F64(q.red_max_p);
  w.F64(q.red_weight);
}

QueueConfig GetQueueConfig(Reader& r) {
  QueueConfig q;
  q.kind = static_cast<QueueConfig::Kind>(r.U8());
  q.capacity_bytes = r.U32();
  q.red_min_th = r.F64();
  q.red_max_th = r.F64();
  q.red_max_p = r.F64();
  q.red_weight = r.F64();
  return q;
}

void PutTcpConfig(Writer& w, const TcpConfig& t) {
  w.U32(t.mss);
  w.U32(t.init_cwnd_segments);
  w.TimeVal(t.min_rto);
  w.TimeVal(t.initial_rto);
  w.Bool(t.ecn);
  w.Bool(t.dctcp);
  w.F64(t.dctcp_g);
}

TcpConfig GetTcpConfig(Reader& r) {
  TcpConfig t;
  t.mss = r.U32();
  t.init_cwnd_segments = r.U32();
  t.min_rto = r.TimeVal();
  t.initial_rto = r.TimeVal();
  t.ecn = r.Bool();
  t.dctcp = r.Bool();
  t.dctcp_g = r.F64();
  return t;
}

void PutSimConfig(Writer& w, const SimConfig& c) {
  w.U8(static_cast<uint8_t>(c.kernel.type));
  w.U32(c.kernel.threads);
  w.U8(static_cast<uint8_t>(c.kernel.metric));
  w.U32(c.kernel.sched_period);
  w.Bool(c.kernel.deterministic);
  w.U32(c.kernel.ranks);
  w.U8(static_cast<uint8_t>(c.kernel.affinity));
  w.U8(static_cast<uint8_t>(c.partition));
  w.U64(c.seed);
  w.Bool(c.profile);
  w.Bool(c.profile_per_round);
  w.Bool(c.profile_per_lp);
  w.Bool(c.trace);
  w.Bool(c.trace_claim_order);
  w.U8(static_cast<uint8_t>(c.tuning));
  w.F64(c.tuning_config.drift_shrink);
  w.F64(c.tuning_config.drift_grow);
  w.U32(c.tuning_config.min_period);
  w.U32(c.tuning_config.max_period);
  w.F64(c.tuning_config.ps_low);
  w.F64(c.tuning_config.ps_high);
  w.I64(c.tuning_config.min_window_ps);
  w.I64(c.tuning_config.max_window_ps);
  w.I64(c.tuning_config.initial_window_ps);
  w.F64(c.tuning_config.parks_per_round_high);
  w.U32(c.tuning_config.min_parties);
  w.U32(c.tuning_config.cpu_limit);
  w.U32(c.tuning_config.min_rounds);
  // v4: speculation + auto-checkpoint plane.
  w.F64(c.tuning_config.cost_ewma_alpha);
  w.I64(c.tuning_config.spec_horizon_initial_ps);
  w.I64(c.tuning_config.spec_horizon_min_ps);
  w.I64(c.tuning_config.spec_horizon_max_ps);
  w.U8(static_cast<uint8_t>(c.speculation));
  w.U32(c.kernel.auto_checkpoint_every);
  w.Str(c.auto_checkpoint_path);
  PutTcpConfig(w, c.tcp);
  PutQueueConfig(w, c.queue);
}

SimConfig GetSimConfig(Reader& r) {
  SimConfig c;
  c.kernel.type = static_cast<KernelType>(r.U8());
  c.kernel.threads = r.U32();
  c.kernel.metric = static_cast<SchedulingMetric>(r.U8());
  c.kernel.sched_period = r.U32();
  c.kernel.deterministic = r.Bool();
  c.kernel.ranks = r.U32();
  c.kernel.affinity = static_cast<AffinityPolicy>(r.U8());
  c.partition = static_cast<PartitionMode>(r.U8());
  c.seed = r.U64();
  c.profile = r.Bool();
  c.profile_per_round = r.Bool();
  c.profile_per_lp = r.Bool();
  c.trace = r.Bool();
  c.trace_claim_order = r.Bool();
  c.tuning = static_cast<TuningMode>(r.U8());
  c.tuning_config.drift_shrink = r.F64();
  c.tuning_config.drift_grow = r.F64();
  c.tuning_config.min_period = r.U32();
  c.tuning_config.max_period = r.U32();
  c.tuning_config.ps_low = r.F64();
  c.tuning_config.ps_high = r.F64();
  c.tuning_config.min_window_ps = r.I64();
  c.tuning_config.max_window_ps = r.I64();
  c.tuning_config.initial_window_ps = r.I64();
  c.tuning_config.parks_per_round_high = r.F64();
  c.tuning_config.min_parties = r.U32();
  c.tuning_config.cpu_limit = r.U32();
  c.tuning_config.min_rounds = r.U32();
  c.tuning_config.cost_ewma_alpha = r.F64();
  c.tuning_config.spec_horizon_initial_ps = r.I64();
  c.tuning_config.spec_horizon_min_ps = r.I64();
  c.tuning_config.spec_horizon_max_ps = r.I64();
  c.speculation = static_cast<SpeculationMode>(r.U8());
  c.kernel.auto_checkpoint_every = r.U32();
  c.auto_checkpoint_path = r.Str();
  c.tcp = GetTcpConfig(r);
  c.queue = GetQueueConfig(r);
  return c;
}

// --- Model state pieces ---

void PutPacket(Writer& w, const Packet& p) {
  if (p.control_data != nullptr) {
    SnapshotFatal(
        "a captured packet carries an opaque control payload (routing "
        "protocol traffic); control-plane state is not snapshot-serializable");
  }
  w.U8(static_cast<uint8_t>(p.kind));
  w.U32(p.flow_id);
  w.U32(p.src);
  w.U32(p.dst);
  w.U32(p.size_bytes);
  w.U8(p.ttl);
  w.Bool(p.ecn_capable);
  w.Bool(p.ecn_ce);
  w.U64(p.seq);
  w.U32(p.payload);
  w.Bool(p.fin);
  w.U64(p.ack);
  w.Bool(p.ece);
  w.U32(p.path_tag);
  w.TimeVal(p.ts);
  w.TimeVal(p.ts_echo);
  w.U16(p.control_kind);
}

Packet GetPacket(Reader& r) {
  Packet p;
  p.kind = static_cast<PacketKind>(r.U8());
  p.flow_id = r.U32();
  p.src = r.U32();
  p.dst = r.U32();
  p.size_bytes = r.U32();
  p.ttl = r.U8();
  p.ecn_capable = r.Bool();
  p.ecn_ce = r.Bool();
  p.seq = r.U64();
  p.payload = r.U32();
  p.fin = r.Bool();
  p.ack = r.U64();
  p.ece = r.Bool();
  p.path_tag = r.U32();
  p.ts = r.TimeVal();
  p.ts_echo = r.TimeVal();
  p.control_kind = r.U16();
  return p;
}

// The event payload dispatch: one arm per named functor in model_events.h.
// TryAs identifies the stored type by ops-table identity, so an ad-hoc
// lambda (progress ticker, user callback) falls through every arm — a
// deliberate fatal, since a closure cannot be serialized.
void PutEvent(Writer& w, Event& ev) {
  w.TimeVal(ev.key.ts);
  w.TimeVal(ev.key.sender_ts);
  w.U32(ev.key.sender_node);
  w.U64(ev.key.seq);
  w.U32(ev.node);
  if (auto* e = ev.fn.TryAs<PacketDeliverEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kPacketDeliver));
    w.U32(e->peer);
    PutPacket(w, e->pkt);
  } else if (auto* e = ev.fn.TryAs<TransmitCompleteEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kTransmitComplete));
    w.U32(e->node);
    w.U32(e->port);
  } else if (auto* e = ev.fn.TryAs<TcpRtoEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kTcpRto));
    w.U32(e->node);
    w.U32(e->flow_id);
  } else if (auto* e = ev.fn.TryAs<FlowStartEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kFlowStart));
    w.U32(e->flow_id);
    w.U32(e->src);
    w.U32(e->dst);
    w.U64(e->bytes);
    PutTcpConfig(w, e->cfg);
  } else if (auto* e = ev.fn.TryAs<FlowArrivalEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kFlowArrival));
    w.U32(e->set_index);
    w.U32(e->source_index);
  } else if (auto* e = ev.fn.TryAs<LinkUpDownEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kLinkUpDown));
    w.U32(e->link);
    w.Bool(e->up);
  } else {
    SnapshotFatal(
        "a pending event is not a named model event (see "
        "src/net/model_events.h); ad-hoc lambda events — progress tickers, "
        "user-scheduled callbacks — cannot be snapshot-serialized");
  }
}

Event GetEvent(Reader& r, Network* net) {
  Event ev;
  ev.key.ts = r.TimeVal();
  ev.key.sender_ts = r.TimeVal();
  ev.key.sender_node = r.U32();
  ev.key.seq = r.U64();
  ev.node = r.U32();
  const auto tag = static_cast<ModelEventTag>(r.U8());
  switch (tag) {
    case ModelEventTag::kPacketDeliver: {
      const NodeId peer = r.U32();
      ev.fn = PacketDeliverEvent{net, peer, GetPacket(r)};
      return ev;
    }
    case ModelEventTag::kTransmitComplete: {
      const NodeId node = r.U32();
      const uint32_t port = r.U32();
      ev.fn = TransmitCompleteEvent{net, node, port};
      return ev;
    }
    case ModelEventTag::kTcpRto: {
      const NodeId node = r.U32();
      const uint32_t flow = r.U32();
      ev.fn = TcpRtoEvent{net, node, flow};
      return ev;
    }
    case ModelEventTag::kFlowStart: {
      const uint32_t flow = r.U32();
      const NodeId src = r.U32();
      const NodeId dst = r.U32();
      const uint64_t bytes = r.U64();
      ev.fn = FlowStartEvent{net, flow, src, dst, bytes, GetTcpConfig(r)};
      return ev;
    }
    case ModelEventTag::kFlowArrival: {
      const uint32_t set = r.U32();
      const uint32_t source = r.U32();
      ev.fn = FlowArrivalEvent{net, set, source};
      return ev;
    }
    case ModelEventTag::kLinkUpDown: {
      const uint32_t link = r.U32();
      const bool up = r.Bool();
      ev.fn = LinkUpDownEvent{net, link, up};
      return ev;
    }
  }
  SnapshotFatal("unknown event tag in snapshot buffer");
}

// Non-fatal twin of PutEvent's dispatch: true iff the event is a named model
// event whose payload the snapshot format can represent. The window
// checkpoint must *decline*, not crash, when e.g. a progress ticker is
// pending — the kernel then simply runs the window conservatively — and the
// auto-checkpoint path uses the same predicate to skip such boundaries.
bool EventSerializable(Event& ev) {
  if (auto* e = ev.fn.TryAs<PacketDeliverEvent>()) {
    return e->pkt.control_data == nullptr;
  }
  return ev.fn.TryAs<TransmitCompleteEvent>() != nullptr ||
         ev.fn.TryAs<TcpRtoEvent>() != nullptr ||
         ev.fn.TryAs<FlowStartEvent>() != nullptr ||
         ev.fn.TryAs<FlowArrivalEvent>() != nullptr ||
         ev.fn.TryAs<LinkUpDownEvent>() != nullptr;
}

void PutLp(Writer& w, Lp* lp) {
  w.TimeVal(lp->now());
  w.U64(lp->seq());
  w.U64(lp->arrival_seq());
  w.U64(lp->fel().Size());
  lp->fel().ForEach([&w](Event& ev) { PutEvent(w, ev); });
}

void GetLp(Reader& r, Network* net, Lp* lp) {
  lp->set_now(r.TimeVal());
  const uint64_t seq = r.U64();
  const uint64_t arrival_seq = r.U64();
  lp->RestoreCounters(seq, arrival_seq);
  // Each event: ts, sender_ts, sender_node, seq, node, tag at least.
  const uint64_t count = r.Count<uint64_t>(33);
  std::vector<Event> events;
  events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    events.push_back(GetEvent(r, net));
  }
  // Straight to the FEL, bypassing Lp::Insert: the captured keys (including
  // any non-deterministic arrival rewrite the parent already applied) must
  // survive verbatim. Deterministic keys are globally unique, so the rebuilt
  // heap dequeues identically whatever its internal layout.
  lp->fel().PushAll(events);
}

void PutQueueStats(Writer& w, const QueueStats& s) {
  w.U64(s.enqueued);
  w.U64(s.dropped);
  w.U64(s.ecn_marked);
  w.U64(s.max_bytes);
  w.TimeVal(s.total_delay);
  w.U64(s.dequeued);
}

QueueStats GetQueueStats(Reader& r) {
  QueueStats s;
  s.enqueued = r.U64();
  s.dropped = r.U64();
  s.ecn_marked = r.U64();
  s.max_bytes = r.U64();
  s.total_delay = r.TimeVal();
  s.dequeued = r.U64();
  return s;
}

void PutFlowCounters(Writer& w, const FlowCounters& c) {
  w.U64(c.flows);
  w.U64(c.completed);
  w.U64(c.rx_bytes);
  w.U64(c.retransmits);
  w.I64(c.fct_ps_sum);
}

FlowCounters GetFlowCounters(Reader& r) {
  FlowCounters c;
  c.flows = r.U64();
  c.completed = r.U64();
  c.rx_bytes = r.U64();
  c.retransmits = r.U64();
  c.fct_ps_sum = r.I64();
  return c;
}

void PutFlowRecord(Writer& w, const FlowRecord& f) {
  w.U32(f.id);
  w.U32(f.src);
  w.U32(f.dst);
  w.U64(f.bytes);
  w.TimeVal(f.start);
  w.Bool(f.completed);
  w.TimeVal(f.fct);
  w.U64(f.retransmits);
  w.U64(f.rtt_samples);
  w.TimeVal(f.rtt_sum);
  w.U64(f.rx_bytes);
  w.TimeVal(f.last_rx);
}

FlowRecord GetFlowRecord(Reader& r) {
  FlowRecord f;
  f.id = r.U32();
  f.src = r.U32();
  f.dst = r.U32();
  f.bytes = r.U64();
  f.start = r.TimeVal();
  f.completed = r.Bool();
  f.fct = r.TimeVal();
  f.retransmits = r.U64();
  f.rtt_samples = r.U64();
  f.rtt_sum = r.TimeVal();
  f.rx_bytes = r.U64();
  f.last_rx = r.TimeVal();
  return f;
}

void PutSenderImage(Writer& w, const TcpSender::Image& im) {
  w.U32(im.path_tag);
  w.U8(im.state);
  w.U64(im.snd_una);
  w.U64(im.snd_nxt);
  w.U64(im.high_tx);
  w.U64(im.cwnd);
  w.U64(im.ssthresh);
  w.U64(im.recover);
  w.U32(im.dup_acks);
  w.Bool(im.completed);
  w.U64(im.retransmits);
  w.I64(im.srtt_ps);
  w.I64(im.rttvar_ps);
  w.I64(im.rto_ps);
  w.Bool(im.rtt_valid);
  w.Bool(im.rto_pending);
  w.I64(im.rto_deadline_ps);
  w.U32(im.rto_backoff);
  w.U64(im.cwr_end);
  w.F64(im.alpha);
  w.U64(im.dctcp_bytes_acked);
  w.U64(im.dctcp_bytes_marked);
  w.U64(im.dctcp_window_end);
}

TcpSender::Image GetSenderImage(Reader& r) {
  TcpSender::Image im;
  im.path_tag = r.U32();
  im.state = r.U8();
  im.snd_una = r.U64();
  im.snd_nxt = r.U64();
  im.high_tx = r.U64();
  im.cwnd = r.U64();
  im.ssthresh = r.U64();
  im.recover = r.U64();
  im.dup_acks = r.U32();
  im.completed = r.Bool();
  im.retransmits = r.U64();
  im.srtt_ps = r.I64();
  im.rttvar_ps = r.I64();
  im.rto_ps = r.I64();
  im.rtt_valid = r.Bool();
  im.rto_pending = r.Bool();
  im.rto_deadline_ps = r.I64();
  im.rto_backoff = r.U32();
  im.cwr_end = r.U64();
  im.alpha = r.F64();
  im.dctcp_bytes_acked = r.U64();
  im.dctcp_bytes_marked = r.U64();
  im.dctcp_window_end = r.U64();
  return im;
}

// Per-node, per-port queue kinds derived from the recorded links — tells the
// restore side (and the save side) which devices carry RED marker state
// beyond the FIFO contents.
std::vector<std::vector<QueueConfig::Kind>> PortQueueKinds(
    uint32_t num_nodes, const std::vector<Network::LinkInfo>& links) {
  std::vector<std::vector<QueueConfig::Kind>> kinds(num_nodes);
  for (const Network::LinkInfo& link : links) {
    auto place = [&kinds](NodeId n, uint32_t port, QueueConfig::Kind kind) {
      if (kinds[n].size() <= port) {
        kinds[n].resize(port + 1, QueueConfig::Kind::kDropTail);
      }
      kinds[n][port] = kind;
    };
    place(link.a, link.port_a, link.queue.kind);
    place(link.b, link.port_b, link.queue.kind);
  }
  return kinds;
}

void CheckQuiescent(Lp* lp, const char* what) {
  for (const auto& outbox : lp->outboxes()) {
    if (!outbox->events.empty()) {
      SnapshotFatal(std::string("Snapshot outside a window boundary: ") + what +
                    " has undelivered mailbox events; snapshot only between "
                    "Run() windows");
    }
  }
  if (!lp->overflow().EmptyUnlocked()) {
    SnapshotFatal(std::string("Snapshot outside a window boundary: ") + what +
                  " has undelivered overflow events; snapshot only between "
                  "Run() windows");
  }
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

// --- Snapshot capture ---

SessionSnapshot Session::Snapshot() {
  Network& net = *net_;
  if (!net.finalized()) {
    SnapshotFatal("Snapshot before Finalize(); open the session first");
  }
  if (net.dv_routing() != nullptr) {
    SnapshotFatal(
        "distance-vector routing state (per-node tables, in-flight control "
        "packets) is not snapshot-serializable; use global ECMP routing");
  }
  Kernel& kernel = net.kernel();

  // Null-message channels may hold events for the next window; move them
  // into the owning FELs (identical to the next receive phase) so the FEL
  // walk below sees the complete event set. No-op for the other kernels.
  kernel.DrainTransportForSnapshot();

  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    CheckQuiescent(kernel.lp(i), "an LP");
  }
  CheckQuiescent(kernel.public_lp(), "the public LP");

  Writer w;
  w.U8(kMagic[0]);
  w.U8(kMagic[1]);
  w.U8(kMagic[2]);
  w.U8(kMagic[3]);
  w.U32(kVersion);

  PutSimConfig(w, net.config());

  // Topology.
  w.U32(net.num_nodes());
  w.U32(static_cast<uint32_t>(net.links().size()));
  for (const Network::LinkInfo& link : net.links()) {
    w.U32(link.a);
    w.U32(link.b);
    w.U64(link.bps);
    w.TimeVal(link.delay);
    w.Bool(link.up);
    w.Bool(link.stateless);
    PutQueueConfig(w, link.queue);
  }

  // The realized partition: the fork restores it as a manual partition so LP
  // numbering — and therefore the per-LP FEL sections below — line up
  // exactly, independent of the original partition mode.
  const Partition& part = net.partition();
  w.U32(part.num_lps);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    w.U32(part.lp_of_node[n]);
  }

  w.U64(net.injection_epoch());

  // Live-tuning state: the epoch is explicit so a fork resumes with the
  // parent's *learned* settings, not the knob values frozen at capture time.
  const Tunables& tun = net.tunable_store().Get();
  w.U64(net.tunable_store().epoch());
  w.U32(tun.sched_period);
  w.U32(tun.parties);
  w.U8(static_cast<uint8_t>(tun.affinity));
  w.I64(tun.max_window_ps);
  w.I64(tun.spec_horizon_ps);

  // v3: the realized LP-ownership map, in the capturing kernel's executor
  // domain; Restore folds the owners modulo the restored kernel's own domain,
  // so a snapshot taken under one kernel restores meaningfully under another.
  // The controller's pending move set (rebalance_seq/moves) is deliberately
  // NOT serialized: the realized map already reflects every applied move, and
  // a fork's kernel restarts its applied-generation counter at zero.
  const PartitionMap& pmap = kernel.partition_map();
  w.U64(pmap.epoch());
  w.U32(pmap.num_executors());
  w.U32(pmap.num_lps());
  for (uint32_t lp = 0; lp < pmap.num_lps(); ++lp) {
    w.U32(pmap.owner(lp));
  }

  const Kernel::SessionState session = kernel.session_state();
  w.TimeVal(session.session_now);
  w.TimeVal(session.resume_floor);
  w.U64(session.session_events);
  w.U64(session.session_rounds);
  w.U32(session.session_windows);

  // Per-LP clocks, tie-break counters, and FEL contents; the public LP last.
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    PutLp(w, kernel.lp(i));
  }
  PutLp(w, kernel.public_lp());

  // Node, device and queue state.
  const auto kinds = PortQueueKinds(net.num_nodes(), net.links());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    const NodeStats& ns = node.stats();
    w.U64(ns.forwarded);
    w.U64(ns.delivered);
    w.U64(ns.no_route);
    w.U64(ns.ttl_expired);
    w.U32(node.num_ports());
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      w.Bool(dev->transmitting());
      const DeviceStats& ds = dev->stats();
      w.U64(ds.tx_packets);
      w.U64(ds.tx_bytes);
      w.U64(ds.dropped_down);
      PutQueueStats(w, dev->queue().stats());
      const std::vector<QueueEntry> entries = dev->queue().Entries();
      w.U32(static_cast<uint32_t>(entries.size()));
      for (const QueueEntry& e : entries) {
        PutPacket(w, e.pkt);
        w.TimeVal(e.enqueue_time);
      }
      const bool red = kinds[n][p] != QueueConfig::Kind::kDropTail;
      w.Bool(red);
      if (red) {
        const RedQueue::MarkerState m =
            static_cast<RedQueue&>(dev->queue()).marker_state();
        w.F64(m.avg);
        w.U64(m.count_since_mark);
        w.U64(m.rng_state);
      }
    }
  }

  // TCP endpoints, sorted by flow id (the unordered_map iteration order is
  // not reproducible; the sort makes save→load→save byte-stable).
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    std::vector<const TcpSender*> senders;
    std::vector<uint32_t> sender_ids;
    for (const auto& [id, sender] : node.senders()) {
      sender_ids.push_back(id);
    }
    std::sort(sender_ids.begin(), sender_ids.end());
    w.U32(static_cast<uint32_t>(sender_ids.size()));
    for (uint32_t id : sender_ids) {
      const TcpSender& s = *node.senders().at(id);
      w.U32(id);
      w.U32(s.dst());
      w.U64(s.size());
      PutTcpConfig(w, s.config());
      PutSenderImage(w, s.Save());
    }
    std::vector<uint32_t> receiver_ids;
    for (const auto& [id, receiver] : node.receivers()) {
      receiver_ids.push_back(id);
    }
    std::sort(receiver_ids.begin(), receiver_ids.end());
    w.U32(static_cast<uint32_t>(receiver_ids.size()));
    for (uint32_t id : receiver_ids) {
      const TcpReceiver& recv = *node.receivers().at(id);
      const TcpReceiver::Image im = recv.Save();
      w.U32(id);
      w.U32(recv.src());
      w.U64(im.rcv_nxt);
      w.U32(static_cast<uint32_t>(im.out_of_order.size()));
      for (const auto& [start, end] : im.out_of_order) {
        w.U64(start);
        w.U64(end);
      }
    }
  }

  // Flow statistics.
  const FlowMonitor::Image monitor = net.flow_monitor().SaveImage();
  w.U32(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    w.U32(static_cast<uint32_t>(monitor.records[s].size()));
    for (const FlowRecord& rec : monitor.records[s]) {
      PutFlowRecord(w, rec);
    }
    PutFlowCounters(w, monitor.deltas[s]);
  }
  PutFlowCounters(w, monitor.merged);
  w.U32(monitor.windows_merged);

  // Streaming flow sources: spec (with the size CDF inlined) plus each
  // source's RNG/pending state. Registration order == serialization order,
  // so registry indices inside captured FlowArrivalEvents stay valid.
  w.U32(net.num_flow_source_sets());
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    const TrafficSpec& spec = set->spec();
    w.U32(static_cast<uint32_t>(spec.hosts.size()));
    for (NodeId h : spec.hosts) {
      w.U32(h);
    }
    const auto& points = spec.sizes->points();
    w.U32(static_cast<uint32_t>(points.size()));
    for (const EmpiricalCdf::Point& pt : points) {
      w.F64(pt.bytes);
      w.F64(pt.cum_prob);
    }
    w.F64(spec.load);
    w.U64(spec.bisection_bps);
    w.TimeVal(spec.start);
    w.TimeVal(spec.duration);
    w.F64(spec.incast_ratio);
    w.U32(spec.victim_index);
    w.U64(spec.rng_stream);
    w.F64(spec.redirect_prob);
    w.U32(spec.redirect_begin);
    w.U32(set->num_sources());
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      const FlowSource::Image im = set->source(src).Save();
      for (uint64_t word : im.stream.rng) {
        w.U64(word);
      }
      w.F64(im.stream.t);
      w.U32(im.pending.src_index);
      w.U32(im.pending.dst_index);
      w.U64(im.pending.bytes);
      w.TimeVal(im.pending.start);
      w.Bool(im.pending.install);
      w.U64(im.installed_flows);
      w.U64(im.total_bytes);
    }
  }

  return SessionSnapshot(w.Take());
}

// --- Restore ---

namespace {

std::unique_ptr<Network> RestoreImpl(const SessionSnapshot& snap,
                                     ExecutorPool* pool, const ForkOptions& opts) {
  Reader r(snap.bytes());
  if (r.U8() != kMagic[0] || r.U8() != kMagic[1] || r.U8() != kMagic[2] ||
      r.U8() != kMagic[3]) {
    SnapshotFatal("not a USNP snapshot buffer");
  }
  const uint32_t version = r.U32();
  if (version != kVersion) {
    SnapshotFatal("unsupported snapshot version " + std::to_string(version) +
                  " (this build reads v" + std::to_string(kVersion) + ")");
  }

  SimConfig cfg = GetSimConfig(r);

  // Each node has an lp_of_node entry; each link a, b, bps, delay at least.
  const uint32_t num_nodes = r.Count<uint32_t>(4);
  const uint32_t num_links = r.Count<uint32_t>(24);
  struct RestoredLink {
    NodeId a, b;
    uint64_t bps;
    Time delay;
    bool up, stateless;
    QueueConfig queue;
  };
  std::vector<RestoredLink> links(num_links);
  for (RestoredLink& link : links) {
    link.a = r.U32();
    link.b = r.U32();
    link.bps = r.U64();
    link.delay = r.TimeVal();
    link.up = r.Bool();
    link.stateless = r.Bool();
    link.queue = GetQueueConfig(r);
  }

  // Each LP section: now, seq, arrival_seq, event count at least.
  const uint32_t num_lps = r.Count<uint32_t>(32);
  std::vector<LpId> lp_of_node(num_nodes);
  for (LpId& lp : lp_of_node) {
    lp = r.U32();
  }

  const uint64_t injection_epoch = r.U64();

  const uint64_t tuning_epoch = r.U64();
  Tunables tunables;
  tunables.sched_period = r.U32();
  tunables.parties = r.U32();
  tunables.affinity = static_cast<AffinityPolicy>(r.U8());
  tunables.max_window_ps = r.I64();
  tunables.spec_horizon_ps = r.I64();

  const uint64_t ownership_epoch = r.U64();
  const uint32_t ownership_executors = r.U32();
  (void)ownership_executors;  // Informational: the capturing kernel's domain.
  const uint32_t ownership_lps = r.Count<uint32_t>(4);
  std::vector<uint32_t> owners(ownership_lps);
  for (uint32_t& o : owners) {
    o = r.U32();
  }

  Kernel::SessionState session;
  session.session_now = r.TimeVal();
  session.resume_floor = r.TimeVal();
  session.session_events = r.U64();
  session.session_rounds = r.U64();
  session.session_windows = r.U32();

  // Divergence knob: mutated queue disciplines apply to the rebuilt queues
  // from their first packet. The branch's own config records the mutation.
  if (opts.mutate_queue) {
    opts.mutate_queue(cfg.queue);
    for (RestoredLink& link : links) {
      opts.mutate_queue(link.queue);
    }
  }

  // Replay the realized partition as a manual one so LP numbering matches
  // the serialized per-LP sections (the sequential kernel forces kSingle
  // regardless, which is what it was captured with).
  if (cfg.kernel.type != KernelType::kSequential) {
    cfg.partition = PartitionMode::kManual;
  }

  auto net = std::make_unique<Network>(cfg);
  net->AddNodes(num_nodes);
  for (const RestoredLink& link : links) {
    net->AddLink(link.a, link.b, link.bps, link.delay, link.queue, link.stateless);
  }
  if (cfg.kernel.type != KernelType::kSequential) {
    net->SetManualPartition(num_lps, lp_of_node);
  }
  if (pool != nullptr) {
    net->set_external_pool(pool);
  }
  net->Finalize();

  // Administrative link state (routing recomputes per change, landing on the
  // same tables the captured session was using).
  for (uint32_t i = 0; i < num_links; ++i) {
    if (!links[i].up) {
      net->SetLinkUp(i, false);
    }
  }

  Kernel& kernel = net->kernel();
  if (kernel.num_lps() != num_lps) {
    SnapshotFatal("restored kernel produced a different LP count than the "
                  "snapshot recorded; partition replay failed");
  }
  kernel.RestoreSessionState(session);
  net->set_injection_epoch(injection_epoch);
  // After Finalize seeded the store from the config: reinstall the captured
  // live values and epoch so the fork's first window runs with the parent's
  // learned settings (its controller, if any, keeps tuning from there).
  net->tunable_store().Restore(tunables, tuning_epoch);
  // Reinstall the parent's realized LP placement (folded modulo this
  // kernel's own executor domain). Results-neutral either way in
  // deterministic mode; this preserves the parent's learned balance.
  if (ownership_lps == kernel.num_lps()) {
    kernel.RestoreOwnership(std::move(owners), ownership_epoch);
  }

  for (uint32_t i = 0; i < num_lps; ++i) {
    GetLp(r, net.get(), kernel.lp(i));
  }
  GetLp(r, net.get(), kernel.public_lp());

  const auto kinds = PortQueueKinds(num_nodes, net->links());
  for (NodeId n = 0; n < num_nodes; ++n) {
    Node& node = net->node(n);
    NodeStats ns;
    ns.forwarded = r.U64();
    ns.delivered = r.U64();
    ns.no_route = r.U64();
    ns.ttl_expired = r.U64();
    node.set_stats(ns);
    const uint32_t ports = r.U32();
    if (ports != node.num_ports()) {
      SnapshotFatal("restored node has a different port count than recorded");
    }
    for (uint32_t p = 0; p < ports; ++p) {
      Device* dev = node.device(p);
      dev->set_transmitting(r.Bool());
      DeviceStats ds;
      ds.tx_packets = r.U64();
      ds.tx_bytes = r.U64();
      ds.dropped_down = r.U64();
      dev->set_stats(ds);
      const QueueStats qs = GetQueueStats(r);
      const uint32_t entries = r.Count<uint32_t>(8);  // enqueue_time at least.
      std::vector<QueueEntry> q;
      q.reserve(entries);
      for (uint32_t e = 0; e < entries; ++e) {
        QueueEntry entry;
        entry.pkt = GetPacket(r);
        entry.enqueue_time = r.TimeVal();
        q.push_back(std::move(entry));
      }
      dev->queue().RestoreEntries(std::move(q));
      dev->queue().set_stats(qs);
      if (r.Bool()) {
        RedQueue::MarkerState m;
        m.avg = r.F64();
        m.count_since_mark = r.U64();
        m.rng_state = r.U64();
        if (kinds[n][p] == QueueConfig::Kind::kDropTail) {
          SnapshotFatal(
              "snapshot carries RED marker state for a drop-tail queue; "
              "mutate_queue may not change a queue's kind");
        }
        static_cast<RedQueue&>(dev->queue()).set_marker_state(m);
      } else if (kinds[n][p] != QueueConfig::Kind::kDropTail) {
        SnapshotFatal(
            "snapshot lacks RED marker state for a RED/DCTCP queue; "
            "mutate_queue may not change a queue's kind");
      }
    }
  }

  for (NodeId n = 0; n < num_nodes; ++n) {
    Node& node = net->node(n);
    const uint32_t senders = r.U32();
    for (uint32_t i = 0; i < senders; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId dst = r.U32();
      const uint64_t bytes = r.U64();
      const TcpConfig tcp = GetTcpConfig(r);
      TcpSender* sender = node.AddSender(
          flow_id,
          std::make_unique<TcpSender>(net.get(), &node, flow_id, dst, bytes, tcp));
      sender->Restore(GetSenderImage(r));
    }
    const uint32_t receivers = r.U32();
    for (uint32_t i = 0; i < receivers; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId src = r.U32();
      TcpReceiver::Image im;
      im.rcv_nxt = r.U64();
      const uint32_t ooo = r.U32();
      for (uint32_t o = 0; o < ooo; ++o) {
        const uint64_t start = r.U64();
        im.out_of_order[start] = r.U64();
      }
      TcpReceiver* receiver = node.AddReceiver(
          flow_id, std::make_unique<TcpReceiver>(net.get(), &node, flow_id, src));
      receiver->Restore(im);
    }
  }

  FlowMonitor::Image monitor;
  monitor.shards = r.Count<uint32_t>(4);  // A record count each.
  monitor.records.resize(monitor.shards);
  monitor.deltas.resize(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    const uint32_t count = r.Count<uint32_t>(20);  // id, src, dst, bytes.
    monitor.records[s].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      monitor.records[s].push_back(GetFlowRecord(r));
    }
    monitor.deltas[s] = GetFlowCounters(r);
  }
  monitor.merged = GetFlowCounters(r);
  monitor.windows_merged = r.U32();
  net->flow_monitor().RestoreImage(monitor);

  const uint32_t num_sets = r.U32();
  for (uint32_t i = 0; i < num_sets; ++i) {
    TrafficSpec spec;
    const uint32_t hosts = r.Count<uint32_t>(4);
    spec.hosts.resize(hosts);
    for (NodeId& h : spec.hosts) {
      h = r.U32();
    }
    const uint32_t num_points = r.Count<uint32_t>(16);
    std::vector<EmpiricalCdf::Point> points(num_points);
    for (EmpiricalCdf::Point& pt : points) {
      pt.bytes = r.F64();
      pt.cum_prob = r.F64();
    }
    auto cdf = std::make_shared<EmpiricalCdf>(std::move(points));
    spec.sizes = cdf.get();
    net->Keep(cdf);  // The set's spec points at it for the network's lifetime.
    spec.load = r.F64();
    spec.bisection_bps = r.U64();
    spec.start = r.TimeVal();
    spec.duration = r.TimeVal();
    spec.incast_ratio = r.F64();
    spec.victim_index = r.U32();
    spec.rng_stream = r.U64();
    spec.redirect_prob = r.F64();
    spec.redirect_begin = r.U32();
    auto set = std::make_shared<FlowSourceSet>(net.get(), std::move(spec));
    const uint32_t num_sources = r.Count<uint32_t>(8);
    if (net->RegisterFlowSourceSet(set) != i || set->num_sources() != num_sources) {
      SnapshotFatal("flow-source registry replay diverged from the snapshot");
    }
    // No Bootstrap: each source's pending arrival already sits in a restored
    // FEL as a FlowArrivalEvent; only the stream/counter state is rebuilt.
    for (uint32_t src = 0; src < num_sources; ++src) {
      FlowSource::Image im;
      for (uint64_t& word : im.stream.rng) {
        word = r.U64();
      }
      im.stream.t = r.F64();
      im.pending.src_index = r.U32();
      im.pending.dst_index = r.U32();
      im.pending.bytes = r.U64();
      im.pending.start = r.TimeVal();
      im.pending.install = r.Bool();
      im.installed_flows = r.U64();
      im.total_bytes = r.U64();
      set->source(src).Restore(im);
    }
  }

  if (r.remaining() != 0) {
    SnapshotFatal("trailing bytes after the snapshot payload (corrupt buffer)");
  }

  char lineage[48];
  std::snprintf(lineage, sizeof lineage, "snap-%016llx@w%u",
                static_cast<unsigned long long>(snap.Digest()),
                session.session_windows);
  kernel.set_lineage(lineage);
  return net;
}

}  // namespace

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
//
// The slim variant reuses the USNP field encoders verbatim but skips
// everything a single Run() window cannot mutate: magic/version, SimConfig,
// topology shape, partition, injection epoch, tunables, ownership, CDF
// specs, and the kernel's session accumulators (FinishRun never runs for an
// aborted attempt, so they are untouched by construction). What remains is
// exactly the state speculative rounds can dirty.

namespace {

bool AllFelsSerializable(Kernel& kernel) {
  bool ok = true;
  const auto scan = [&ok](Event& ev) { ok = ok && EventSerializable(ev); };
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    kernel.lp(i)->fel().ForEach(scan);
  }
  kernel.public_lp()->fel().ForEach(scan);
  return ok;
}

}  // namespace

bool SessionSerializable(Network& net) {
  if (!net.finalized() || net.dv_routing() != nullptr) {
    return false;
  }
  Kernel& kernel = net.kernel();
  // The same transport drain Snapshot() performs (execution-neutral), so the
  // FEL scan sees the complete event set under the null-message kernel too.
  kernel.DrainTransportForSnapshot();
  return AllFelsSerializable(kernel);
}

bool CaptureWindowCheckpoint(Network& net, std::vector<uint8_t>* out) {
  if (!net.finalized() || net.dv_routing() != nullptr) {
    return false;
  }
  Kernel& kernel = net.kernel();
  kernel.DrainTransportForSnapshot();
  if (!AllFelsSerializable(kernel)) {
    return false;
  }
  // Window-boundary quiescence is the capture's correctness premise (the
  // checkpoint has no mailbox section); a violation here is a kernel bug.
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    CheckQuiescent(kernel.lp(i), "an LP");
  }
  CheckQuiescent(kernel.public_lp(), "the public LP");

  Writer w(std::move(*out));

  // Per-link administrative state. A LinkUpDown global below the
  // conservative bound executes even in a speculative attempt; if a later
  // round then misses, the flip must be undone — restore re-applies any
  // changed link, which also recomputes routing and the lookahead.
  w.U32(static_cast<uint32_t>(net.links().size()));
  for (const Network::LinkInfo& link : net.links()) {
    w.Bool(link.up);
    w.TimeVal(link.delay);
  }

  // LP clocks, tie-break counters, and FEL contents; the public LP last.
  w.U32(kernel.num_lps());
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    PutLp(w, kernel.lp(i));
  }
  PutLp(w, kernel.public_lp());

  // Node, device and queue state — same layout as the full snapshot.
  const auto kinds = PortQueueKinds(net.num_nodes(), net.links());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    const NodeStats& ns = node.stats();
    w.U64(ns.forwarded);
    w.U64(ns.delivered);
    w.U64(ns.no_route);
    w.U64(ns.ttl_expired);
    w.U32(node.num_ports());
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      w.Bool(dev->transmitting());
      const DeviceStats& ds = dev->stats();
      w.U64(ds.tx_packets);
      w.U64(ds.tx_bytes);
      w.U64(ds.dropped_down);
      PutQueueStats(w, dev->queue().stats());
      const std::vector<QueueEntry> entries = dev->queue().Entries();
      w.U32(static_cast<uint32_t>(entries.size()));
      for (const QueueEntry& e : entries) {
        PutPacket(w, e.pkt);
        w.TimeVal(e.enqueue_time);
      }
      const bool red = kinds[n][p] != QueueConfig::Kind::kDropTail;
      w.Bool(red);
      if (red) {
        const RedQueue::MarkerState m =
            static_cast<RedQueue&>(dev->queue()).marker_state();
        w.F64(m.avg);
        w.U64(m.count_since_mark);
        w.U64(m.rng_state);
      }
    }
  }

  // TCP endpoints, sorted by flow id (same reason as the full snapshot: the
  // map iteration order is not reproducible).
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    std::vector<uint32_t> sender_ids;
    for (const auto& [id, sender] : node.senders()) {
      sender_ids.push_back(id);
    }
    std::sort(sender_ids.begin(), sender_ids.end());
    w.U32(static_cast<uint32_t>(sender_ids.size()));
    for (uint32_t id : sender_ids) {
      const TcpSender& s = *node.senders().at(id);
      w.U32(id);
      w.U32(s.dst());
      w.U64(s.size());
      PutTcpConfig(w, s.config());
      PutSenderImage(w, s.Save());
    }
    std::vector<uint32_t> receiver_ids;
    for (const auto& [id, receiver] : node.receivers()) {
      receiver_ids.push_back(id);
    }
    std::sort(receiver_ids.begin(), receiver_ids.end());
    w.U32(static_cast<uint32_t>(receiver_ids.size()));
    for (uint32_t id : receiver_ids) {
      const TcpReceiver& recv = *node.receivers().at(id);
      const TcpReceiver::Image im = recv.Save();
      w.U32(id);
      w.U32(recv.src());
      w.U64(im.rcv_nxt);
      w.U32(static_cast<uint32_t>(im.out_of_order.size()));
      for (const auto& [start, end] : im.out_of_order) {
        w.U64(start);
        w.U64(end);
      }
    }
  }

  // Flow statistics.
  const FlowMonitor::Image monitor = net.flow_monitor().SaveImage();
  w.U32(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    w.U32(static_cast<uint32_t>(monitor.records[s].size()));
    for (const FlowRecord& rec : monitor.records[s]) {
      PutFlowRecord(w, rec);
    }
    PutFlowCounters(w, monitor.deltas[s]);
  }
  PutFlowCounters(w, monitor.merged);
  w.U32(monitor.windows_merged);

  // Streaming flow sources: stream/pending state only (the specs and their
  // CDFs are immutable within a window — the registry itself only grows
  // between windows).
  w.U32(net.num_flow_source_sets());
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    w.U32(set->num_sources());
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      const FlowSource::Image im = set->source(src).Save();
      for (uint64_t word : im.stream.rng) {
        w.U64(word);
      }
      w.F64(im.stream.t);
      w.U32(im.pending.src_index);
      w.U32(im.pending.dst_index);
      w.U64(im.pending.bytes);
      w.TimeVal(im.pending.start);
      w.Bool(im.pending.install);
      w.U64(im.installed_flows);
      w.U64(im.total_bytes);
    }
  }

  *out = w.Take();
  return true;
}

void RestoreWindowCheckpoint(Network& net, const std::vector<uint8_t>& buf) {
  Kernel& kernel = net.kernel();
  Reader r(buf);

  const uint32_t num_links = r.U32();
  if (num_links != net.links().size()) {
    SnapshotFatal(
        "window checkpoint link count diverged from the live topology");
  }
  for (uint32_t i = 0; i < num_links; ++i) {
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

  const uint32_t num_lps = r.U32();
  if (num_lps != kernel.num_lps()) {
    SnapshotFatal("window checkpoint LP count diverged from the live kernel");
  }
  for (uint32_t i = 0; i < num_lps; ++i) {
    kernel.lp(i)->fel().Clear();
    GetLp(r, &net, kernel.lp(i));
  }
  kernel.public_lp()->fel().Clear();
  GetLp(r, &net, kernel.public_lp());

  const auto kinds = PortQueueKinds(net.num_nodes(), net.links());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    NodeStats ns;
    ns.forwarded = r.U64();
    ns.delivered = r.U64();
    ns.no_route = r.U64();
    ns.ttl_expired = r.U64();
    node.set_stats(ns);
    const uint32_t ports = r.U32();
    if (ports != node.num_ports()) {
      SnapshotFatal("window checkpoint port count diverged from the node");
    }
    for (uint32_t p = 0; p < ports; ++p) {
      Device* dev = node.device(p);
      dev->set_transmitting(r.Bool());
      DeviceStats ds;
      ds.tx_packets = r.U64();
      ds.tx_bytes = r.U64();
      ds.dropped_down = r.U64();
      dev->set_stats(ds);
      const QueueStats qs = GetQueueStats(r);
      const uint32_t entries = r.U32();
      std::vector<QueueEntry> q;
      q.reserve(entries);
      for (uint32_t e = 0; e < entries; ++e) {
        QueueEntry entry;
        entry.pkt = GetPacket(r);
        entry.enqueue_time = r.TimeVal();
        q.push_back(std::move(entry));
      }
      dev->queue().RestoreEntries(std::move(q));
      dev->queue().set_stats(qs);
      if (r.Bool()) {
        RedQueue::MarkerState m;
        m.avg = r.F64();
        m.count_since_mark = r.U64();
        m.rng_state = r.U64();
        static_cast<RedQueue&>(dev->queue()).set_marker_state(m);
      } else if (kinds[n][p] != QueueConfig::Kind::kDropTail) {
        SnapshotFatal("window checkpoint lacks RED state for a RED queue");
      }
    }
  }

  // TCP endpoints: drop the live set wholesale and re-create the captured
  // one (speculative rounds may have created endpoints, completed flows, or
  // advanced connection state — re-creation covers all three at once, and
  // endpoint counts per window are small).
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    node.ClearTcpEndpoints();
    const uint32_t senders = r.U32();
    for (uint32_t i = 0; i < senders; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId dst = r.U32();
      const uint64_t bytes = r.U64();
      const TcpConfig tcp = GetTcpConfig(r);
      TcpSender* sender = node.AddSender(
          flow_id,
          std::make_unique<TcpSender>(&net, &node, flow_id, dst, bytes, tcp));
      sender->Restore(GetSenderImage(r));
    }
    const uint32_t receivers = r.U32();
    for (uint32_t i = 0; i < receivers; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId src = r.U32();
      TcpReceiver::Image im;
      im.rcv_nxt = r.U64();
      const uint32_t ooo = r.U32();
      for (uint32_t o = 0; o < ooo; ++o) {
        const uint64_t start = r.U64();
        im.out_of_order[start] = r.U64();
      }
      TcpReceiver* receiver = node.AddReceiver(
          flow_id, std::make_unique<TcpReceiver>(&net, &node, flow_id, src));
      receiver->Restore(im);
    }
  }

  FlowMonitor::Image monitor;
  monitor.shards = r.U32();
  monitor.records.resize(monitor.shards);
  monitor.deltas.resize(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    const uint32_t count = r.U32();
    monitor.records[s].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      monitor.records[s].push_back(GetFlowRecord(r));
    }
    monitor.deltas[s] = GetFlowCounters(r);
  }
  monitor.merged = GetFlowCounters(r);
  monitor.windows_merged = r.U32();
  net.flow_monitor().RestoreImageInPlace(monitor);

  const uint32_t num_sets = r.U32();
  if (num_sets != net.num_flow_source_sets()) {
    SnapshotFatal(
        "window checkpoint flow-source registry diverged from the session");
  }
  for (uint32_t i = 0; i < num_sets; ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    const uint32_t num_sources = r.U32();
    if (num_sources != set->num_sources()) {
      SnapshotFatal("window checkpoint flow-source set size diverged");
    }
    for (uint32_t src = 0; src < num_sources; ++src) {
      FlowSource::Image im;
      for (uint64_t& word : im.stream.rng) {
        word = r.U64();
      }
      im.stream.t = r.F64();
      im.pending.src_index = r.U32();
      im.pending.dst_index = r.U32();
      im.pending.bytes = r.U64();
      im.pending.start = r.TimeVal();
      im.pending.install = r.Bool();
      im.installed_flows = r.U64();
      im.total_bytes = r.U64();
      set->source(src).Restore(im);
    }
  }

  if (r.remaining() != 0) {
    SnapshotFatal("trailing bytes after the window checkpoint payload");
  }
}

}  // namespace unison
