#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's measuring loop: set-up timing, the closed-loop timed run,
// the traced run and the one-line JSON report (see perfbench/README.md).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// The benchmark's own spans, kept in memory. One span per call the traced
// run makes into a layer; the per-layer "_ms" metrics are the per-name sums.
// Single-threaded: only the thread running the ops opens spans.
class Trace {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;  // since the trace began
    int64_t end_ns = 0;
  };

  // Runs fn() inside a span named `name` and returns its result. The span's
  // duration is also available as last_span_ns() until the next span closes.
  template <typename Fn>
  auto Span(std::string_view name, Fn&& fn) -> decltype(fn()) {
    size_t index = Open(name);
    struct Closer {
      Trace* trace;
      size_t index;
      ~Closer() { trace->Close(index); }
    } closer{this, index};
    return fn();
  }

  int64_t last_span_ns() const { return last_span_ns_; }

  // Runs fn() as probe work beside the op (a second call that exposes a
  // layer's counters or storage cost): spans opened inside still count for
  // their layer, but the time is left out of the op's traced latency.
  template <typename Fn>
  void Aside(Fn&& fn) {
    Clock::time_point t0 = Clock::now();
    fn();
    aside_ns_ += NanosBetween(t0, Clock::now());
  }

  int64_t aside_ns() const { return aside_ns_; }

  // Adds `value` to the per-layer metric `name` (counts, derived times).
  void Add(const std::string& name, double value) { values_[name] += value; }

  // Per-name span totals in milliseconds merged with the Add()ed values.
  std::map<std::string, double> Totals() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  size_t Open(std::string_view name);
  void Close(size_t index);

  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  int64_t last_span_ns_ = 0;
  int64_t aside_ns_ = 0;
  std::map<std::string, double> values_;
};

// One workload: a fixed pool of generated inputs with their references,
// built entirely by the factory (set-up), and the op run on pool item k.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t pool_size() const = 0;

  // One op on pool item `k % pool_size()` through the library's public
  // entry points with library defaults. Keeps the output for Check.
  virtual calm::Status Run(size_t k) = 0;

  // Compares the last op's output with the item's reference. Untimed.
  virtual calm::Status Check(size_t k) = 0;

  // The same op with every layer call under a span of `trace`, the engine
  // boundaries behind a TimedQuery. Keeps its output for CheckTraced.
  virtual calm::Status RunTraced(size_t k, Trace* trace) = 0;

  virtual calm::Status CheckTraced(size_t k) { return Check(k); }
};

// Builds a workload from the seed: generates every input and reference and
// creates the workload's fixed queries and transducers.
using WorkloadFactory = calm::Result<std::unique_ptr<Workload>> (*)(uint64_t);

struct WorkloadSpec {
  const char* name;
  WorkloadFactory make;
};

// survey, bulk_eval.
const std::vector<WorkloadSpec>& Workloads();

struct MetricSpec {
  std::string name;
  const char* unit;
};

// The end-to-end metrics every untraced run reports.
const std::vector<MetricSpec>& EndToEndMetrics();

// The per-layer metrics every traced run reports (zero where a workload has
// no such layer).
const std::vector<MetricSpec>& PerLayerMetrics();

// Letters, digits, '_', '.' and '-', starting with a letter or digit, at
// most 64 characters.
bool ValidMetricName(std::string_view name);

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Runs one workload end to end and prints the report; returns the process
// exit code.
int RunBenchmark(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
