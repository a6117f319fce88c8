// bulk_eval (survey.cc has the survey). A workload generates its whole input
// pool and every reference output in its factory, so set-up is deterministic
// work and the timed loop only runs ops.

#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "datalog/program.h"
#include "datalog/relstore.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workload/graph_gen.h"

namespace perfbench {

using calm::Instance;
using calm::InternalError;
using calm::Query;
using calm::Result;
using calm::Status;
using calm::Tuple;
using calm::datalog::DatalogQuery;
using calm::datalog::EvalStats;

uint64_t MixSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

// A fingerprint of an instance: its fact count and a hash of its facts in
// their deterministic (sorted) iteration order.
struct Digest {
  size_t facts = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const Instance& instance) {
  Digest d;
  d.facts = instance.size();
  instance.ForEachFact([&](uint32_t rel, const Tuple& t) {
    d.hash = MixSeed(d.hash, rel);
    for (size_t i = 0; i < t.size(); ++i) d.hash = MixSeed(d.hash, t[i].raw());
  });
  return d;
}

// The stratified query's Eval route with its EvalStats exposed: DatalogQuery
// ::Eval runs exactly this EvalParts call without the stats pointer.
Result<Instance> EvalWithStats(const DatalogQuery& q, const Instance& input,
                               Trace* trace) {
  EvalStats stats;
  Result<Instance> out = trace->Span("datalog.eval_ms", [&] {
    return q.prepared().EvalParts({&input}, &q.input_schema(),
                                  &q.output_schema(), &stats);
  });
  trace->Add("datalog.derived_facts", stats.derived_facts);
  trace->Add("datalog.fixpoint_rounds", stats.fixpoint_rounds);
  trace->Add("datalog.rule_applications", stats.rule_applications);
  if (out.ok()) {
    trace->Add("datalog.output_facts", out->size());
  }
  return out;
}

// --- bulk_eval ---------------------------------------------------------------
//
// Few fixed stratified programs on seeded random graphs of 60-200 vertices:
// the semi-naive fixpoint, dedup/probe and ToInstance at data sizes the
// survey's 2-4-fact instances never reach. Set-up keeps only a digest of
// each reference output, so no copy of the benchmark's own counts toward the
// peak resident set of the ops.

class BulkEval final : public Workload {
 public:
  static constexpr size_t kPool = 96;
  static constexpr size_t kMinVertices = 60;
  static constexpr size_t kMaxVertices = 200;
  static constexpr size_t kEdgesPerVertex = 4;

  explicit BulkEval(uint64_t seed) {
    queries_.push_back(calm::queries::TcProgram());
    queries_.push_back(calm::queries::ComplementTcProgram());
    queries_.push_back(
        DatalogQuery::FromTextOrDie("O(x, z) :- E(x, y), E(y, z).\n", "join"));
    // Each program's vertex counts are evenly spaced over the range, both
    // ends included, and the seed draws the graphs. The peak resident set
    // follows the largest TC output in steps, so the largest graph must not
    // move with the seed.
    const size_t per_program = kPool / queries_.size();
    for (size_t k = 0; k < kPool; ++k) {
      const size_t program = k % queries_.size();
      const size_t n = kMinVertices + (k / queries_.size()) *
                                          (kMaxVertices - kMinVertices) /
                                          (per_program - 1);
      pool_.push_back({program,
                       calm::workload::RandomGraphM(n, kEdgesPerVertex * n,
                                                    MixSeed(seed, k)),
                       {}});
    }
    status_ = ComputeReferences();
  }

  const Status& status() const { return status_; }
  size_t pool_size() const override { return pool_.size(); }

  Status Run(size_t k) override {
    const Item& item = pool_[k % pool_.size()];
    Result<Instance> out = queries_[item.program].Eval(item.graph);
    if (!out.ok()) return out.status();
    output_ = std::move(out).value();
    return Status::Ok();
  }

  Status Check(size_t k) override {
    const Item& item = pool_[k % pool_.size()];
    const Digest got = DigestOf(output_);
    if (got != item.expected) {
      return InternalError(
          "bulk_eval output differs from the reference on op " +
          std::to_string(k) + ": " + std::to_string(got.facts) +
          " facts, want " + std::to_string(item.expected.facts));
    }
    return Status::Ok();
  }

  Status RunTraced(size_t k, Trace* trace) override {
    const Item& item = pool_[k % pool_.size()];
    Result<Instance> out =
        EvalWithStats(queries_[item.program], item.graph, trace);
    if (!out.ok()) return out.status();
    output_ = std::move(out).value();
    // The storage layer on this op's data: seeding a Database from the
    // input, and materializing the output back into an Instance.
    trace->Aside([&] {
      trace->Span("datalog.seed_ms", [&] {
        calm::datalog::Database db(item.graph);
        return db.size();
      });
      calm::datalog::Database out_db(output_);
      trace->Span("datalog.materialize_ms",
                  [&] { return out_db.ToInstance().size(); });
    });
    return Status::Ok();
  }

 private:
  struct Item {
    size_t program;
    Instance graph;
    Digest expected;  // of the native, engine-free query's output
  };

  // Fills in every item's expected digest from the native queries, run in a
  // child process: their outputs are as large as the engine's, and their
  // memory must not count toward the peak resident set of the ops.
  Status ComputeReferences() {
    int fds[2];
    if (pipe(fds) != 0) return InternalError("bulk_eval: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return InternalError("bulk_eval: fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      std::unique_ptr<Query> references[] = {
          calm::queries::MakeTransitiveClosure(),
          calm::queries::MakeComplementTransitiveClosure(),
          calm::queries::MakeTwoHopJoin(),
      };
      for (const Item& item : pool_) {
        Result<Instance> want = references[item.program]->Eval(item.graph);
        if (!want.ok()) _exit(1);
        const Digest d = DigestOf(*want);
        if (write(fds[1], &d, sizeof d) != sizeof d) _exit(1);
      }
      _exit(0);
    }
    close(fds[1]);
    size_t done = 0;
    for (Item& item : pool_) {
      if (read(fds[0], &item.expected, sizeof item.expected) !=
          sizeof item.expected) {
        break;
      }
      ++done;
    }
    close(fds[0]);
    int wait_status = 0;
    const bool exited = waitpid(pid, &wait_status, 0) == pid &&
                        WIFEXITED(wait_status) &&
                        WEXITSTATUS(wait_status) == 0;
    if (!exited || done != pool_.size()) {
      return InternalError("bulk_eval: the reference process failed");
    }
    return Status::Ok();
  }

  std::vector<DatalogQuery> queries_;
  std::vector<Item> pool_;
  Status status_;
  Instance output_;
};

}  // namespace

Result<std::unique_ptr<Workload>> MakeBulkEval(uint64_t seed) {
  auto w = std::make_unique<BulkEval>(seed);
  if (!w->status().ok()) return w->status();
  return std::unique_ptr<Workload>(std::move(w));
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"survey", &MakeSurvey},
      {"bulk_eval", &MakeBulkEval},
  };
  return workloads;
}

}  // namespace perfbench
