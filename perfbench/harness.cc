#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using calm::Json;
using calm::Status;

// Set-up is repeated for kSetupSeconds in all and the median reported. A
// survey set-up takes milliseconds; on a shared 4-core VM, back-to-back
// set-ups ran in blocks of some tens of milliseconds at one of two speeds
// about 50% apart, and whole runs could stay at one speed for seconds. So
// the timed run is cut into kSlices slices, each after a set-up phase of its
// own, and the set-up samples span the same stretch of wall time as the
// ops. The median also leaves out the first set-up's one-time costs (a
// fresh heap's page faults, interning).
constexpr double kSetupSeconds = 3;
constexpr int kSlices = 5;
// The driver thread moves to the next CPU after each stint of this length
// (see CpuRotation).
constexpr auto kCpuStint = std::chrono::milliseconds(100);
// Untimed ops after set-up, so lazily built state (thread-local buffers,
// the checker pool's first dispatch) is not charged to the first timed op.
constexpr size_t kWarmupOps = 4;

size_t Trace::Open(std::string_view name) {
  SpanRecord span;
  span.name = std::string(name);
  span.start_ns = NanosBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Trace::Close(size_t index) {
  SpanRecord& span = spans_[index];
  span.end_ns = NanosBetween(origin_, Clock::now());
  last_span_ns_ = span.end_ns - span.start_ns;
}

std::map<std::string, double> Trace::Totals() const {
  std::map<std::string, double> totals = values_;
  for (const SpanRecord& span : spans_) {
    totals[span.name] += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  return totals;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"datalog.parse_ms", "ms"},
        {"datalog.create_ms", "ms"},
        {"datalog.rules", "count"},
        {"datalog.strata", "count"},
        {"datalog.eval_ms", "ms"},
        {"datalog.derived_facts", "count"},
        {"datalog.fixpoint_rounds", "count"},
        {"datalog.rule_applications", "count"},
        {"datalog.seed_ms", "ms"},
        {"datalog.materialize_ms", "ms"},
        {"datalog.output_facts", "count"},
        {"monotonicity.ladder_ms", "ms"},
        {"monotonicity.ladder_nosym_ms", "ms"},
        {"monotonicity.preservation_ms", "ms"},
        {"monotonicity.ladder_self_ms", "ms"},
        {"checker.base_evals", "count"},
        {"checker.base_eval_ms", "ms"},
        {"checker.union_evaluators", "count"},
        {"checker.pair_checks", "count"},
        {"checker.pair_check_us", "us"},
        {"checker.symmetry_pair_ratio", "ratio"},
        {"transducer.strategy_ms", "ms"},
        {"transducer.fault_ms", "ms"},
        {"transducer.bsp_ms", "ms"},
        {"transducer.run_ms", "ms"},
        {"transducer.local_evals", "count"},
        {"transducer.local_eval_ms", "ms"},
        {"net.run_self_ms", "ms"},
        {"net.transitions", "count"},
        {"net.messages_sent", "count"},
        {"net.messages_delivered", "count"},
        {"net.heartbeat_share", "ratio"},
        {"net.supersteps", "count"},
        {"fault.events", "count"},
    };
    // Every run total in ms also as its share of the summed op latency.
    const size_t totals = m.size();
    for (size_t i = 0; i < totals; ++i) {
      const std::string& name = m[i].name;
      if (name.ends_with("_ms")) {
        m.push_back({name.substr(0, name.size() - 3) + "_share", "ratio"});
      }
    }
    m.push_back({"trace.overhead_ratio", "ratio"});
    m.push_back({"trace.ops", "count"});
    return m;
  }();
  return metrics;
}

bool ValidMetricName(std::string_view name) {
  auto alnum = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  if (name.empty() || name.size() > 64 || !alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

// Linear interpolation between closest ranks; `sorted` is ascending.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// The peak resident set of this address space. getrusage's ru_maxrss would
// also count the parent's image inherited across fork + exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Walks the calling thread round every CPU the process may use, one stint
// each. On the shared VM each vCPU switches, independently of the others,
// between a fast and a slow speed about 40% apart for seconds to tens of
// seconds at a time, and an idle guest keeps a lone busy thread on one vCPU
// for a whole run. A run that sat on one vCPU therefore read that vCPU's
// luck; a run that visits all of them in turn reads their average.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }

  // The number of CPUs visited; 0 when there is no rotation.
  size_t cpus() const { return cpus_.size(); }

  // Pins the calling thread to the next CPU once its stint is over. Called
  // between ops and between set-ups, never inside a timed interval.
  void Tick() {
    if (cpus_.empty()) return;
    const Clock::time_point now = Clock::now();
    if (now < stint_end_) return;
    stint_end_ = now + kCpuStint;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) cpus_.clear();
  }

  // Gives every other thread of the process the whole CPU set back: threads
  // a set-up started (the survey's checker pool) inherited the one CPU the
  // caller was pinned to.
  void FreeOtherThreads() const {
    if (cpus_.empty()) return;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return;
    const pid_t self = gettid();
    while (const dirent* entry = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0 && tid != self) {
        (void)sched_setaffinity(tid, sizeof allowed_, &allowed_);
      }
    }
    closedir(dir);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point stint_end_;
};

struct Pass {
  size_t attempted = 0;
  size_t failed = 0;
  double latency_sum_ms = 0;       // every attempted op
  std::vector<double> latency_ms;  // completed ops only
};

void Record(Pass* pass, size_t k, double ms, const Status& status) {
  ++pass->attempted;
  pass->latency_sum_ms += ms;
  if (status.ok()) {
    pass->latency_ms.push_back(ms);
    return;
  }
  if (++pass->failed <= 5) {
    std::fprintf(stderr, "op %zu failed: %s\n", k, status.ToString().c_str());
  }
}

// Builds the workload into *w, again and again until `seconds` have passed
// (at least once), adding each set-up time to *setup_s; then runs the
// untimed warm-up ops.
Status SetUp(const WorkloadSpec& spec, uint64_t seed, double seconds,
             CpuRotation* cpus, std::vector<double>* setup_s,
             std::unique_ptr<Workload>* w) {
  const Clock::time_point start = Clock::now();
  do {
    w->reset();
    cpus->Tick();
    Clock::time_point t0 = Clock::now();
    calm::Result<std::unique_ptr<Workload>> made = spec.make(seed);
    setup_s->push_back(static_cast<double>(NanosBetween(t0, Clock::now())) /
                       1e9);
    CALM_RETURN_IF_ERROR(made.status());
    *w = std::move(made).value();
  } while (NanosBetween(start, Clock::now()) < seconds * 1e9);
  cpus->FreeOtherThreads();
  for (size_t k = 0; k < std::min((*w)->pool_size(), kWarmupOps); ++k) {
    (void)(*w)->Run(k);
  }
  return Status::Ok();
}

// The closed loop: one op at a time, from op *k on, until `seconds` of wall
// time have passed (output checks included in the wall time, excluded from
// op latency).
void RunUntraced(Workload& w, double seconds, CpuRotation* cpus, size_t* k,
                 Pass* pass) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (; Clock::now() < deadline; ++*k) {
    cpus->Tick();
    Clock::time_point t0 = Clock::now();
    Status status = w.Run(*k);
    double ms = static_cast<double>(NanosBetween(t0, Clock::now())) / 1e6;
    if (status.ok()) status = w.Check(*k);
    Record(pass, *k, ms, status);
  }
}

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m.Set("value", Json::Double(value));
  m.Set("unit", Json::Str(unit));
  return m;
}

// Turns the traced pass's span totals and raw counts into the per-layer
// metrics; raw names that are not metrics themselves feed the ratios.
Json PerLayerJson(const Trace& trace, const Pass& untraced,
                  const Pass& traced) {
  std::map<std::string, double> t = trace.Totals();
  t["checker.pair_check_us"] =
      Ratio(t["checker.pair_check_ns"] / 1e3, t["checker.pair_checks"]);
  t["checker.symmetry_pair_ratio"] =
      Ratio(t["checker.pair_checks_sym_on"], t["checker.pair_checks_sym_off"]);
  t["net.heartbeat_share"] = Ratio(t["net.heartbeats"], t["net.transitions"]);
  t["trace.overhead_ratio"] =
      Ratio(traced.latency_sum_ms, untraced.latency_sum_ms);
  t["trace.ops"] = static_cast<double>(traced.attempted);
  Json metrics = Json::Object();
  for (const MetricSpec& m : PerLayerMetrics()) {
    const std::string& name = m.name;
    const double value =
        name.ends_with("_share")
            ? Ratio(t[name.substr(0, name.size() - 6) + "_ms"],
                    traced.latency_sum_ms)
            : t[name];
    metrics.Set(name, Metric(value, m.unit));
  }
  return metrics;
}

}  // namespace

int RunBenchmark(const BenchOptions& options) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  CpuRotation cpus;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  Pass untraced;
  Pass traced;
  Trace trace;
  Json metrics = Json::Object();
  size_t k = 0;
  auto set_up = [&](double seconds) {
    Status status =
        SetUp(*spec, options.seed, seconds, &cpus, &setup_s, &w);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };
  if (!options.trace) {
    for (int slice = 0; slice < kSlices; ++slice) {
      if (!set_up(kSetupSeconds / kSlices)) return 1;
      RunUntraced(*w, options.seconds / kSlices, &cpus, &k, &untraced);
    }
    std::sort(setup_s.begin(), setup_s.end());
    std::vector<double> lat = untraced.latency_ms;
    std::sort(lat.begin(), lat.end());
    const double busy_s = untraced.latency_sum_ms / 1e3;
    double values[] = {
        Quantile(setup_s, 0.5),
        Ratio(static_cast<double>(lat.size()), busy_s),
        Quantile(lat, 0.5),
        Quantile(lat, 0.9),
        PeakRssMb(),
    };
    for (size_t i = 0; i < EndToEndMetrics().size(); ++i) {
      metrics.Set(EndToEndMetrics()[i].name,
                  Metric(values[i], EndToEndMetrics()[i].unit));
    }
  } else {
    // One set-up (setup_s is not reported here). Half the time untraced,
    // then the same ops on the same workload traced: their latency ratio is
    // the tracing overhead.
    if (!set_up(0)) return 1;
    RunUntraced(*w, options.seconds / 2, &cpus, &k, &untraced);
    for (k = 0; k < untraced.attempted; ++k) {
      cpus.Tick();
      int64_t aside0 = trace.aside_ns();
      Clock::time_point t0 = Clock::now();
      Status status = w->RunTraced(k, &trace);
      int64_t ns = NanosBetween(t0, Clock::now()) - (trace.aside_ns() - aside0);
      double ms = static_cast<double>(ns) / 1e6;
      if (status.ok()) status = w->CheckTraced(k);
      Record(&traced, k, ms, status);
    }
    metrics = PerLayerJson(trace, untraced, traced);
  }

  const size_t attempted = untraced.attempted + traced.attempted;
  const size_t failed = untraced.failed + traced.failed;
  if (untraced.attempted < 100) {
    std::fprintf(stderr,
                 "warning: %zu timed ops; p90 wants at least 100 per run\n",
                 untraced.attempted);
  }

  Json info = Json::Object();
  info.Set("workload", Json::Str(options.workload));
  info.Set("seed", Json::Uint(options.seed));
  info.Set("trace", Json::Bool(options.trace));
  info.Set("seconds", Json::Double(options.seconds));
  info.Set("ops", Json::Uint(untraced.attempted));
  info.Set("traced_ops", Json::Uint(traced.attempted));
  info.Set("pool", Json::Uint(w->pool_size()));
  info.Set("setup_reps", Json::Uint(setup_s.size()));
  info.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  info.Set("cpus_rotated", Json::Uint(cpus.cpus()));
  info.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  info.Set("compiler", Json::Str(PERFBENCH_COMPILER));
  Json info_line = Json::Object();
  info_line.Set("perfbench", std::move(info));
  std::printf("%s\n", info_line.Dump(-1).c_str());

  Json result = Json::Object();
  result.Set("correct", Json::Bool(failed == 0 && attempted > 0));
  result.Set("attempted", Json::Uint(attempted));
  result.Set("failed", Json::Uint(failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(-1).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
