#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

}  // namespace

int SpanRecorder::Add(std::string name, std::string cat, uint32_t tid, uint64_t start_ns,
                      uint64_t end_ns) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{std::move(name), std::move(cat), tid, start_ns - origin_ns_,
                        end_ns - start_ns, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::AddArg(int span, std::string key, double value) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].args.emplace_back(std::move(key), value);
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& other_data) const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  out += other_data;
  out += "},\"traceEvents\":[";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":\"";
    AppendEscaped(&out, s.name);
    out += "\",\"cat\":\"";
    AppendEscaped(&out, s.cat);
    // Trace-event timestamps are microseconds; keep ns resolution.
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3);
    out += buf;
    if (!s.args.empty()) {
      out += ",\"args\":{";
      for (size_t a = 0; a < s.args.size(); ++a) {
        out += a == 0 ? "\"" : ",\"";
        AppendEscaped(&out, s.args[a].first);
        std::snprintf(buf, sizeof(buf), "\":%.17g", s.args[a].second);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
