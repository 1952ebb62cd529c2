// Benchmark-side spans around public library calls, exported as Chrome
// trace-event JSON (one "ph":"X" complete event per span) so any trace
// viewer (chrome://tracing, Perfetto) can open a sample's timeline offline.
//
// Spans are recorded only by the benchmark's own code, never inside the
// library: each wraps one public call (a Build* builder, Network::Finalize,
// a traffic install, one Network::Run window, Session::Snapshot, ...). A
// disabled recorder still times the call, so the untraced and traced passes
// measure the same code path apart from the library's own tracing.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string cat;  // The layer the wrapped call belongs to.
    uint32_t tid = 0;  // Timeline row: 0 = parent network, 1+i = branch i.
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }

  // Records a finished span; returns its index (for AddArg), or -1 when off.
  int Add(std::string name, std::string cat, uint32_t tid, uint64_t start_ns,
          uint64_t end_ns);
  void AddArg(int span, std::string key, double value);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes {"traceEvents": [...], "otherData": {...}}; `other_data` is a
  // JSON object body (without braces) of provenance fields.
  bool WriteChromeTrace(const std::string& path, const std::string& other_data) const;

 private:
  bool enabled_;
  uint64_t origin_ns_;
  std::vector<Span> spans_;
};

// Times `fn()` and records it as one span; returns the duration in seconds.
template <typename Fn>
double Timed(SpanRecorder& rec, const char* name, const char* cat, uint32_t tid,
             Fn&& fn) {
  const uint64_t t0 = NowNs();
  fn();
  const uint64_t t1 = NowNs();
  rec.Add(name, cat, tid, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
