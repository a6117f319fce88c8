#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/status.h"
#include "harness.h"
#include "monotonicity/ladder.h"
#include "workload/fuzzer.h"

namespace perfbench {

// splitmix64 over (seed, k): the k-th input of a workload. The same mixing
// as the fuzzer's own, so survey program k is RunSurvey's program k.
uint64_t MixSeed(uint64_t seed, uint64_t k);

calm::Result<std::unique_ptr<Workload>> MakeSurvey(uint64_t seed);
calm::Result<std::unique_ptr<Workload>> MakeBulkEval(uint64_t seed);

// The survey's classifier options: library defaults with a 2-thread
// checker pool.
calm::workload::ClassifyOptions SurveyClassifyOptions();

// What the traced survey learns by calling ClassifyProgram's stages itself.
struct MirrorRecord {
  std::string fragment;
  std::string class_bucket;
  std::string strategy;
  uint64_t bsp_supersteps = 0;
  calm::monotonicity::Ladder ladder;
  // Every strategy run quiesced with output Q(I).
  bool strategy_outputs_match = true;
};

// Runs ClassifyProgram's stages in its order and with its options, each
// under a span of `trace`, with the checkers and strategy transducers handed
// a TimedQuery.
calm::Result<MirrorRecord> MirrorClassify(
    const calm::workload::GeneratedProgram& program,
    const calm::workload::ClassifyOptions& options, Trace* trace);

// OK iff the mirror saw the class, ladder rows and witnesses, strategy and
// BSP superstep count that ClassifyProgram recorded.
calm::Status CompareMirror(const MirrorRecord& mirror,
                           const calm::workload::CorpusRecord& record);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
