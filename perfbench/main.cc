// Real-core benchmark: wall time of the library's public API on the
// machine it runs on, against the sequential oracle, with no cost-model
// numbers anywhere.
//
//   perfbench --workload fattree-dense --seed 1 --seconds 10 --trace 0
//             [--out DIR] [--git-sha SHA] [--src-digest D]
//
// Every sample runs in a forked child process, one at a time: the child
// builds, runs and reads back one workload and pipes its measurements to the
// parent, which never creates a Network itself. That gives each sample its
// own peak-RSS reading (wait4) and turns an abort (FatalConfigError) or an
// uncaught exception into one failed sample instead of a lost run.
//
// A run measures an ensemble of kInputs inputs derived from `--seed`; cycle c
// runs input c mod kInputs. Each cycle alternates the parallel configuration
// (unison, `threads` workers) and the sequential oracle, until `--seconds`
// have passed. A reported timing is, per input, the median of that input's
// samples of one configuration that the hypervisor did not disturb, averaged
// over the inputs, so it depends far less on the seed than one input's
// timing would; exact counts are averaged over the inputs. With --trace 1,
// traced samples (SimConfig::trace = true, plus the benchmark's spans
// exported as Chrome trace-event JSON) are interleaved with the untraced ones
// and the per-layer metrics are printed; with --trace 0 the end-to-end
// metrics are. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
#include <poll.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Seconds a single sample may take before it counts as hung and is killed.
constexpr double kSampleTimeoutS = 60;
// Inputs per run, each generated from `--seed` and its index.
constexpr int kInputs = 8;
// Measured cycles every run takes, however short `--seconds` is: every input
// of the ensemble at least once in every sample kind.
constexpr int kMinCycles = kInputs;
constexpr int kMaxCycles = 400;
// Most parallel samples in one cycle.
constexpr int kMaxRepeats = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint32_t threads = 1;  // Half the cores online; see ParseArgs.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {fattree-dense|torus-sync|"
               "wan-whatif} --seed N --seconds S --trace {0|1} [--out DIR] "
               "[--git-sha SHA] [--src-digest D]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + key);
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (key == "--out") {
        o.out_dir = val;
      } else if (key == "--git-sha") {
        o.git_sha = val;
      } else if (key == "--src-digest") {
        o.src_digest = val;
      } else {
        Usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + key + ": " + val);
    }
  }
  if (!IsWorkload(o.workload)) {
    Usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0) || o.seconds > 120) {
    Usage("--seconds must be in (0, 120]");
  }
  // Half the cores, not all of them: a shared host does not always back every
  // vCPU with a free core, and a worker whose vCPU is descheduled stalls all
  // the others at the next barrier. Measured on a 4-vCPU VM, 4-thread samples
  // then ran 2-3x slower (13-21% of their CPU time stolen), while 2-thread
  // samples interleaved with them ran 10-25% slower.
  o.threads = static_cast<uint32_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN) / 2));
  return o;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Time stolen from all of this machine's CPUs so far (the "steal" column of
// /proc/stat), in ms; 0 where the kernel does not report it.
double StealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0;
  uint64_t steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    steal = field;  // user nice system idle iowait irq softirq steal
  }
  return cpu == "cpu" ? static_cast<double>(steal) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- Child → parent transport: one "key value..." line per field --------

// The scalar fields of SampleResult, in transport order.
#define PERFBENCH_SCALARS(X)                                                              \
  X(setup_s) X(topo_build_s) X(finalize_s) X(install_s) X(run_s) X(summarize_s)          \
  X(snapshot_s) X(save_load_s) X(fork_s) X(branch_run_s) X(snapshot_bytes) X(events)     \
  X(rounds) X(lps) X(cut_links) X(lookahead_ps) X(processing_ns) X(sync_ns)              \
  X(messaging_ns) X(imbalance_x_rounds) X(barrier_ns) X(parks) X(traced_rounds)          \
  X(spec_rounds) X(spec_hits) X(spec_misses) X(rollback_ns) X(checkpoint_captures)

std::string Serialize(const SampleResult& r) {
  std::ostringstream os;
  os.precision(17);
  auto list = [&](const char* key, const auto& values) {
    os << key;
    for (const auto& v : values) {
      os << ' ' << v;
    }
    os << '\n';
  };
  list("fingerprints", r.fingerprints);
  list("session_events", r.session_events);
  list("window_ms", r.window_ms);
  const unison::FlowSummary& s = r.summary;
  os << "summary " << s.flows << ' ' << s.completed << ' ' << s.mean_fct_ms << ' '
     << s.p99_fct_ms << ' ' << s.mean_rtt_ms << ' ' << s.mean_throughput_mbps << ' '
     << s.total_rx_bytes << ' ' << s.total_retransmits << '\n';
#define PERFBENCH_WRITE(f) os << #f << ' ' << r.f << '\n';
  PERFBENCH_SCALARS(PERFBENCH_WRITE)
#undef PERFBENCH_WRITE
  return os.str();
}

bool Parse(const std::string& text, SampleResult* r) {
  std::istringstream in(text);
  std::string line;
  int fields = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    ++fields;
    if (key == "fingerprints" || key == "session_events") {
      auto& v = key == "fingerprints" ? r->fingerprints : r->session_events;
      for (uint64_t x; ls >> x;) {
        v.push_back(x);
      }
    } else if (key == "window_ms") {
      for (double x; ls >> x;) {
        r->window_ms.push_back(x);
      }
    } else if (key == "summary") {
      unison::FlowSummary& s = r->summary;
      ls >> s.flows >> s.completed >> s.mean_fct_ms >> s.p99_fct_ms >> s.mean_rtt_ms >>
          s.mean_throughput_mbps >> s.total_rx_bytes >> s.total_retransmits;
    }
#define PERFBENCH_READ(f) else if (key == #f) { ls >> r->f; }
    PERFBENCH_SCALARS(PERFBENCH_READ)
#undef PERFBENCH_READ
    else {
      return false;
    }
    if (ls.fail() && !ls.eof()) {
      return false;
    }
  }
  static const std::string kEmpty = Serialize(SampleResult{});
  static const int kFields = static_cast<int>(std::count(kEmpty.begin(), kEmpty.end(), '\n'));
  return fields == kFields && !r->fingerprints.empty();
}

// --- Samples ---------------------------------------------------------------

enum Kind { kPar = 0, kSeq = 1, kParTraced = 2, kSeqTraced = 3 };
const char* const kKindNames[] = {"parallel", "oracle", "parallel-traced", "oracle-traced"};

struct Sample {
  Kind kind = kPar;
  int input = 0;  // Index into the run's input ensemble.
  bool warmup = false;
  bool ok = false;       // Ran to completion and parsed.
  bool correct = false;  // ok, and matches the oracle.
  std::string error;
  double peak_rss_mb = 0;
  double wall_s = 0;    // Fork to reap.
  double steal_ms = 0;  // CPU time the hypervisor took from all CPUs meanwhile.
  SampleResult result;
};

// Seed of input `input` of the ensemble (splitmix64 of the run's seed).
uint64_t InputSeed(uint64_t seed, int input) {
  uint64_t z = seed * kInputs + static_cast<uint64_t>(input) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string ProvenanceJson(const Options& o) {
  std::string s;
  s += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"cpu_model\":" + JsonString(CpuModel());
  s += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  s += ",\"git_sha\":" + JsonString(o.git_sha);
  s += ",\"src_digest\":" + JsonString(o.src_digest);
  s += ",\"seed\":" + std::to_string(o.seed);
  s += ",\"input_seeds\":[";
  for (int i = 0; i < kInputs; ++i) {
    s += (i == 0 ? "" : ",") + std::to_string(InputSeed(o.seed, i));
  }
  s += "],\"threads\":" + std::to_string(o.threads);
  s += ",\"workload\":" + JsonString(o.workload);
  return s;
}

// Body of the forked child: runs one sample and writes it to `fd`.
[[noreturn]] void ChildMain(const Options& o, Kind kind, int input, int sample_index, int fd) {
  int code = 0;
  std::string payload;
  try {
    SampleConfig cfg;
    cfg.workload = o.workload;
    cfg.seed = InputSeed(o.seed, input);
    cfg.parallel = kind == kPar || kind == kParTraced;
    cfg.threads = cfg.parallel ? o.threads : 1;
    cfg.trace = kind == kParTraced || kind == kSeqTraced;
    cfg.snapshot_path = o.out_dir + "/snapshot_" + std::to_string(getpid()) + ".usnp";
    SpanRecorder spans(kind == kParTraced);
    const uint64_t t0 = NowNs();
    const SampleResult r = RunSample(cfg, spans);
    spans.Add(o.workload, "bench", 0, t0, NowNs());
    if (spans.enabled()) {
      const std::string path = o.out_dir + "/trace_" + o.workload + "_seed" +
                               std::to_string(o.seed) + ".json";
      if (!spans.WriteChromeTrace(path, ProvenanceJson(o) + ",\"input\":" +
                                            std::to_string(input) + ",\"sample\":" +
                                            std::to_string(sample_index))) {
        throw std::runtime_error("cannot write " + path);
      }
    }
    payload = Serialize(r);
  } catch (const std::exception& e) {
    payload = std::string("error ") + e.what() + "\n";
    code = 3;
  }
  size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = write(fd, payload.data() + off, payload.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      _exit(4);
    }
    off += static_cast<size_t>(n);
  }
  close(fd);
  _exit(code);
}

Sample RunChild(const Options& o, Kind kind, int input, int sample_index) {
  Sample s;
  s.kind = kind;
  s.input = input;
  int fds[2];
  if (pipe(fds) != 0) {
    s.error = "pipe failed";
    return s;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const double steal0 = StealMs();
  const uint64_t start = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    s.error = "fork failed";
    return s;
  }
  if (pid == 0) {
    // A sample never outlives this process, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    ChildMain(o, kind, input, sample_index, fds[1]);
  }
  close(fds[1]);
  std::string text;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(kSampleTimeoutS * 1e9);
  bool timed_out = false;
  char buf[4096];
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= deadline) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      continue;  // Timeout: re-checked at the top.
    }
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (timed_out) {
    kill(pid, SIGKILL);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  s.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
  s.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  s.steal_ms = StealMs() - steal0;
  if (timed_out) {
    s.error = "timed out";
  } else if (WIFSIGNALED(status)) {
    s.error = std::string("killed by signal ") + strsignal(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    s.error = text.rfind("error ", 0) == 0 ? text.substr(6) : "exit status " +
                                                                   std::to_string(WEXITSTATUS(status));
    while (!s.error.empty() && s.error.back() == '\n') {
      s.error.pop_back();
    }
  } else if (!Parse(text, &s.result)) {
    s.error = "unreadable sample output";
  } else {
    s.ok = true;
  }
  return s;
}

// Compares a sample's results with the oracle's. Integer outcomes must match
// exactly; the floating-point means of FlowSummary are sums taken in shard
// order, which differs with the executor count, so they match to 1e-9.
std::string OracleMismatch(const SampleResult& got, const SampleResult& ref) {
  if (got.fingerprints != ref.fingerprints) {
    return "fingerprint differs from the oracle";
  }
  if (got.session_events != ref.session_events) {
    return "event count differs from the oracle";
  }
  const unison::FlowSummary& a = got.summary;
  const unison::FlowSummary& b = ref.summary;
  auto close = [](double x, double y) {
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  };
  if (a.flows != b.flows || a.completed != b.completed || a.total_rx_bytes != b.total_rx_bytes ||
      a.total_retransmits != b.total_retransmits || a.p99_fct_ms != b.p99_fct_ms ||
      !close(a.mean_fct_ms, b.mean_fct_ms) || !close(a.mean_rtt_ms, b.mean_rtt_ms) ||
      !close(a.mean_throughput_mbps, b.mean_throughput_mbps)) {
    return "FlowSummary differs from the oracle";
  }
  return "";
}

// --- Statistics ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The highest percentile with at least ten samples beyond it; the median
// when there are too few samples for any tail.
double Tail(const std::vector<double>& v, double* pct) {
  for (double p : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(v.size()) * (1 - p) >= 10) {
      *pct = p * 100;
      return Quantile(v, p);
    }
  }
  *pct = 50;
  return Median(v);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
};

// Runs samples until `--seconds` have passed and every input has been
// measured. Once it has, the run may end between any two samples, since every
// input weighs the same in the figures however often it ran. The first cycle
// is a warm-up, checked like any other but left out of the medians. Without
// --trace, its timings set how often the parallel configuration repeats in
// later cycles, so that a cycle spends at least as long on it as on the
// oracle. The oracle runs once per cycle: its samples vary less, since a
// stalled vCPU holds up only its own thread, not every worker at a barrier.
std::vector<Sample> CollectSamples(const Options& o) {
  std::vector<Kind> cycle = {kPar, kSeq};
  if (o.trace) {
    cycle = {kPar, kSeq, kParTraced, kSeqTraced};
  }
  std::vector<Sample> samples;
  int repeats[4] = {1, 1, 1, 1};
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(o.seconds * 1e9);
  for (int c = 0; c <= kMaxCycles; ++c) {
    for (Kind k : cycle) {
      for (int r = 0; r < repeats[k]; ++r) {
        if (c > kMinCycles && NowNs() >= deadline) {
          return samples;
        }
        Sample s = RunChild(o, k, c % kInputs, static_cast<int>(samples.size()));
        s.warmup = c == 0;
        samples.push_back(std::move(s));
      }
    }
    // The warm-up cycle starts with one parallel and one oracle sample.
    if (c == 0 && !o.trace && samples[0].ok && samples[1].ok) {
      const double par_s = samples[0].result.run_s;
      const double seq_s = samples[1].result.run_s;
      repeats[kPar] = std::clamp(static_cast<int>(std::lround(seq_s / par_s)), 1, kMaxRepeats);
    }
  }
  return samples;
}

// Oracle gate: per input, the first completed oracle sample is the reference,
// and every other sample of that input, oracle or parallel, must reproduce
// it. Kernel work counts must also repeat exactly across the input's parallel
// samples. Marks each sample correct or not; returns the number failed.
int GateSamples(std::vector<Sample>& samples) {
  const SampleResult* ref[kInputs] = {};
  const SampleResult* par_ref[kInputs] = {};
  for (const Sample& s : samples) {
    if (s.ok && (s.kind == kSeq || s.kind == kSeqTraced) && ref[s.input] == nullptr) {
      ref[s.input] = &s.result;
    }
  }
  int failed = 0;
  for (Sample& s : samples) {
    if (s.ok && ref[s.input] == nullptr) {
      s.error = "no oracle sample of this input completed";
    } else if (s.ok) {
      s.error = OracleMismatch(s.result, *ref[s.input]);
      const SampleResult*& pr = par_ref[s.input];
      if (s.error.empty() && (s.kind == kPar || s.kind == kParTraced)) {
        if (pr == nullptr) {
          pr = &s.result;
        } else if (s.result.events != pr->events || s.result.rounds != pr->rounds) {
          s.error = "kernel events/rounds differ between parallel samples";
        }
      }
    }
    s.correct = s.ok && s.error.empty();
    if (!s.correct) {
      ++failed;
      std::printf("perfbench: FAILED %s sample (input %d): %s\n", kKindNames[s.kind], s.input,
                  s.error.c_str());
    }
  }
  return failed;
}

// A sample counts as disturbed when the hypervisor took more than this share
// of the machine's CPU time while it ran. A stalled vCPU stalls every worker
// at the next barrier, so a few percent of steal slows a parallel sample by
// tens of percent.
constexpr double kMaxStealShare = 0.005;

// /proc/stat counts steal in clock ticks, so one tick of it is forgiven.
double StealShare(const Sample& s) {
  const double tick_ms = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const double cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const double steal_ms = std::max(0.0, s.steal_ms - tick_ms);
  return s.wall_s > 0 ? steal_ms * 1e-3 / (s.wall_s * cpus) : 0.0;
}

// Aggregates over the measured (correct, non-warm-up) samples of a run.
class Stats {
 public:
  explicit Stats(const std::vector<Sample>& samples) : samples_(samples) {}

  // Timings: per input, the median over that input's undisturbed samples (or,
  // if every one was disturbed, over the least-disturbed half), then the mean
  // over the inputs. Every input weighs the same however often it ran, and
  // the samples a hypervisor stall slowed are left out.
  template <typename Field>
  double Med(Kind kind, Field field) const {
    double sum = 0;
    int inputs = 0;
    for (int i = 0; i < kInputs; ++i) {
      std::vector<const Sample*> v;
      for (const Sample& s : samples_) {
        if (Measured(s, kind) && s.input == i) {
          v.push_back(&s);
        }
      }
      if (v.empty()) {
        continue;
      }
      std::stable_sort(v.begin(), v.end(), [](const Sample* a, const Sample* b) {
        return StealShare(*a) < StealShare(*b);
      });
      size_t keep = static_cast<size_t>(std::count_if(
          v.begin(), v.end(), [](const Sample* s) { return StealShare(*s) <= kMaxStealShare; }));
      if (keep == 0) {
        keep = (v.size() + 1) / 2;
      }
      std::vector<double> x;
      for (size_t j = 0; j < keep; ++j) {
        x.push_back(field(*v[j]));
      }
      sum += Median(x);
      ++inputs;
    }
    return inputs == 0 ? 0.0 : sum / inputs;
  }

  // Exact counts: each input's value, which all its correct samples repeat,
  // averaged over the inputs, so the figure repeats from run to run.
  template <typename Field>
  double MeanOverInputs(Kind kind, Field field) const {
    double sum = 0;
    int inputs = 0;
    for (int i = 0; i < kInputs; ++i) {
      const auto it = std::find_if(samples_.begin(), samples_.end(), [&](const Sample& s) {
        return s.kind == kind && s.input == i && s.correct;
      });
      if (it != samples_.end()) {
        sum += field(*it);
        ++inputs;
      }
    }
    return inputs == 0 ? 0.0 : sum / inputs;
  }

  size_t Count(Kind kind) const {
    return static_cast<size_t>(std::count_if(samples_.begin(), samples_.end(),
                                             [&](const Sample& s) { return Measured(s, kind); }));
  }

  size_t Disturbed(Kind kind) const {
    return static_cast<size_t>(std::count_if(samples_.begin(), samples_.end(), [&](const Sample& s) {
      return Measured(s, kind) && StealShare(s) > kMaxStealShare;
    }));
  }

  std::vector<double> Windows(Kind kind) const {
    std::vector<double> v;
    for (const Sample& s : samples_) {
      if (Measured(s, kind)) {
        v.insert(v.end(), s.result.window_ms.begin(), s.result.window_ms.end());
      }
    }
    return v;
  }

 private:
  static bool Measured(const Sample& s, Kind kind) {
    return s.kind == kind && s.correct && !s.warmup;
  }

  const std::vector<Sample>& samples_;
};

// A field of SampleResult, as a double.
template <typename T>
auto Get(T SampleResult::*member) {
  return [member](const Sample& s) { return static_cast<double>(s.result.*member); };
}

// A field of SampleResult per traced round.
template <typename T>
auto PerRound(T SampleResult::*member) {
  return [member](const Sample& s) {
    return static_cast<double>(s.result.*member) /
           static_cast<double>(std::max<uint64_t>(s.result.traced_rounds, 1));
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> EndToEndMetrics(const Stats& st, int attempted, int failed) {
  const size_t n_par = st.Count(kPar);
  return {
      {"setup_s", "s", st.Med(kPar, Get(&SampleResult::setup_s)), n_par},
      {"run_s", "s", st.Med(kPar, Get(&SampleResult::run_s)), n_par},
      {"seq_run_s", "s", st.Med(kSeq, Get(&SampleResult::run_s)), st.Count(kSeq)},
      {"peak_rss_mb", "MB", st.Med(kPar, [](const Sample& s) { return s.peak_rss_mb; }), n_par},
      {"ok_ratio", "ratio", 1.0 - static_cast<double>(failed) / attempted,
       static_cast<size_t>(attempted)},
  };
}

std::vector<Metric> PerLayerMetrics(const Stats& st) {
  using R = SampleResult;
  const size_t n = st.Count(kParTraced);
  const size_t n_par = st.Count(kPar);
  const size_t n_seq = st.Count(kSeq);
  auto tr = [&](auto field) { return st.Med(kParTraced, field); };
  auto exact = [&](auto field) { return st.MeanOverInputs(kParTraced, field); };
  const double par_run = st.Med(kPar, Get(&R::run_s));
  const double seq_run = st.Med(kSeq, Get(&R::run_s));
  const double events = exact(Get(&R::events));
  const double rounds = exact(Get(&R::rounds));
  const double seq_events = st.MeanOverInputs(kSeq, Get(&R::events));
  const double par_p = tr(Get(&R::processing_ns));
  const double seq_p = st.Med(kSeqTraced, Get(&R::processing_ns));
  const double hits = exact(Get(&R::spec_hits));
  const double misses = exact(Get(&R::spec_misses));
  const std::vector<double> windows = st.Windows(kParTraced);
  double tail_pct = 0;
  const double tail = Tail(windows, &tail_pct);
  std::printf("perfbench: window tail is p%g of %zu Run() windows\n", tail_pct, windows.size());
  return {
      {"core.seq_ns_per_event", "ns", Ratio(seq_run * 1e9, seq_events), n_seq},
      {"kernel.events", "count", events, n},
      {"kernel.rounds", "count", rounds, n},
      {"kernel.events_per_round", "count", Ratio(events, rounds), n},
      {"kernel.processing_s", "s", par_p * 1e-9, n},
      {"kernel.sync_s", "s", tr(Get(&R::sync_ns)) * 1e-9, n},
      {"kernel.messaging_s", "s", tr(Get(&R::messaging_ns)) * 1e-9, n},
      {"kernel.p_inflation", "ratio", Ratio(Ratio(par_p, events), Ratio(seq_p, seq_events)), n},
      {"kernel.imbalance", "ratio", tr([](const Sample& s) {
         return s.result.imbalance_x_rounds /
                static_cast<double>(std::max<uint64_t>(s.result.rounds, 1));
       }),
       n},
      {"kernel.window_p50_ms", "ms", Median(windows), windows.size()},
      {"kernel.window_tail_ms", "ms", tail, windows.size()},
      {"kernel.speedup", "ratio", Ratio(seq_run, par_run), n_par},
      {"sched.barrier_us_per_round", "us", tr(PerRound(&R::barrier_ns)) * 1e-3, n},
      {"sched.parks_per_round", "count", tr(PerRound(&R::parks)), n},
      {"engine.spec_rounds", "count", exact(Get(&R::spec_rounds)), n},
      {"engine.spec_hits", "count", hits, n},
      {"engine.spec_misses", "count", misses, n},
      {"engine.spec_hit_ratio", "ratio", Ratio(hits, hits + misses), n},
      {"engine.checkpoint_captures", "count", exact(Get(&R::checkpoint_captures)), n},
      {"engine.rollback_s", "s", tr(Get(&R::rollback_ns)) * 1e-9, n},
      {"net.session.snapshot_s", "s", tr(Get(&R::snapshot_s)), n},
      {"net.session.snapshot_bytes", "bytes", exact(Get(&R::snapshot_bytes)), n},
      {"net.session.save_load_s", "s", tr(Get(&R::save_load_s)), n},
      {"net.session.fork_s", "s", tr(Get(&R::fork_s)), n},
      {"net.session.branch_run_s", "s", tr(Get(&R::branch_run_s)), n},
      {"topo.build_s", "s", tr(Get(&R::topo_build_s)), n},
      {"net.finalize_s", "s", tr(Get(&R::finalize_s)), n},
      {"traffic.install_s", "s", tr(Get(&R::install_s)), n},
      {"partition.lps", "count", exact(Get(&R::lps)), n},
      {"partition.cut_links", "count", exact(Get(&R::cut_links)), n},
      {"partition.lookahead_ns", "ns", exact(Get(&R::lookahead_ps)) * 1e-3, n},
      {"stats.summarize_s", "s", tr(Get(&R::summarize_s)), n},
      {"bench.trace_overhead", "ratio", Ratio(tr(Get(&R::run_s)), par_run), n},
  };
}

// The full record of a run: provenance, every metric with its sample count,
// and every sample.
void WriteRecord(const Options& o, const std::vector<Metric>& metrics,
                 const std::vector<Sample>& samples, int failed) {
  std::string rec = "{\"provenance\":{" + ProvenanceJson(o) + "},\"trace\":" +
                    (o.trace ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(samples.size()) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu}",
                  i == 0 ? "" : ",", JsonString(metrics[i].name).c_str(), metrics[i].value,
                  JsonString(metrics[i].unit).c_str(), metrics[i].samples);
    rec += buf;
  }
  rec += "},\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"kind\":\"%s\",\"input\":%d,\"warmup\":%s,\"correct\":%s,\"setup_s\":%.9g,"
                  "\"run_s\":%.9g,\"steal_ms\":%.6g,\"peak_rss_mb\":%.6g,\"events\":%llu,"
                  "\"rounds\":%llu,\"error\":",
                  i == 0 ? "" : ",", kKindNames[s.kind], s.input, s.warmup ? "true" : "false",
                  s.correct ? "true" : "false", s.result.setup_s, s.result.run_s, s.steal_ms,
                  s.peak_rss_mb,
                  static_cast<unsigned long long>(s.result.events),
                  static_cast<unsigned long long>(s.result.rounds));
    rec += buf + JsonString(s.error) + "}";
  }
  rec += "]}\n";
  const std::string path = o.out_dir + "/result_" + o.workload + "_seed" +
                           std::to_string(o.seed) + "_trace" + (o.trace ? "1" : "0") + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(rec.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  std::printf("perfbench: {%s}\n", ProvenanceJson(o).c_str());

  const uint64_t start = NowNs();
  std::vector<Sample> samples = CollectSamples(o);
  const double measured_s = static_cast<double>(NowNs() - start) * 1e-9;
  const int failed = GateSamples(samples);
  const int attempted = static_cast<int>(samples.size());
  const Stats st(samples);
  const std::vector<Metric> metrics =
      o.trace ? PerLayerMetrics(st) : EndToEndMetrics(st, attempted, failed);

  for (const Metric& m : metrics) {
    std::printf("perfbench: %-28s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("perfbench: %d samples (%zu parallel, %zu oracle measured; %zu and %zu of them "
              "disturbed by steal) in %.1f s, %d failed\n",
              attempted, st.Count(kPar), st.Count(kSeq), st.Disturbed(kPar), st.Disturbed(kSeq),
              measured_s, failed);
  WriteRecord(o, metrics, samples, failed);

  std::string last = std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                  JsonString(metrics[i].name).c_str(), metrics[i].value,
                  JsonString(metrics[i].unit).c_str());
    last += buf;
  }
  last += "}}";
  std::printf("%s\n", last.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
