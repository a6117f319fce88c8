// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as its last stdout line, a
// JSON object with "correct", "attempted", "failed" and "metrics" (the
// end-to-end metrics, or with --trace 1 the per-layer ones). The line before
// it records the host, build and op counts. perfbench/run.py builds this
// binary and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseUint(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions options;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing value");
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else {
      return Usage(("bad flag or value: " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  return perfbench::RunBenchmark(options);
}
