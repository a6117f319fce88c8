// The survey workload: ClassifyProgram on fuzzer programs, shapes
// round-robin, into an in-memory corpus; and its traced mirror, which calls
// each ClassifyProgram stage's public function itself.

#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/stratifier.h"
#include "monotonicity/preservation.h"
#include "net/fault.h"
#include "timed_query.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/instance_gen.h"
#include "workloads.h"

namespace perfbench {

using calm::Instance;
using calm::InternalError;
using calm::Result;
using calm::Status;
using calm::Value;
using calm::datalog::DatalogQuery;
using calm::monotonicity::Counterexample;
using calm::monotonicity::ExhaustiveOptions;
using calm::monotonicity::Ladder;
using calm::monotonicity::LadderRow;
using calm::workload::ClassifyOptions;
using calm::workload::CorpusRecord;
using calm::workload::GeneratedProgram;
using calm::workload::ShapeGuarantee;

// Half of a 4-core host: the checker pool gets two threads and two cores
// stay free for the rest of the machine.
constexpr size_t kCheckerThreads = 2;

ClassifyOptions SurveyClassifyOptions() {
  ClassifyOptions options;
  options.threads = kCheckerThreads;
  return options;
}

namespace {

std::string BucketOf(const Ladder& ladder) {
  bool m = true, distinct = true, disjoint = true;
  for (const LadderRow& row : ladder.rows) {
    m = m && row.in_m;
    distinct = distinct && row.in_distinct;
    disjoint = disjoint && row.in_disjoint;
  }
  if (m) return "M";
  if (distinct) return "Mdistinct";
  if (disjoint) return "Mdisjoint";
  return "beyond-Mdisjoint";
}

bool SameWitness(const std::optional<Counterexample>& a,
                 const std::optional<Counterexample>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() ||
         (a->i == b->i && a->j == b->j && a->retracted == b->retracted);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// The strategy stage: the guarantee's transducer on a 2-node network under
// async-fair runs, one seeded chaos fault plan, and BSP, as ClassifyProgram
// runs it, with the transducer handed a TimedQuery.
Status MirrorStrategies(const GeneratedProgram& program,
                        const DatalogQuery& query, const Instance& input,
                        ShapeGuarantee guarantee, MirrorRecord* m,
                        Trace* trace) {
  using namespace calm::transducer;
  Network nodes{Value::FromInt(900), Value::FromInt(901)};
  QueryCounters local;
  TimedQuery timed(query, &local);
  std::unique_ptr<DistributionPolicy> policy;
  std::unique_ptr<Transducer> strategy;
  ModelOptions model = ModelOptions::PolicyAware();
  switch (guarantee) {
    case ShapeGuarantee::kMonotone:
      m->strategy = "broadcast";
      policy = std::make_unique<HashPolicy>(nodes);
      strategy = MakeBroadcastTransducer(&timed);
      model = ModelOptions::Original();
      break;
    case ShapeGuarantee::kDomainDistinct:
      m->strategy = "absence";
      policy = std::make_unique<HashPolicy>(nodes);
      strategy = MakeAbsenceTransducer(&timed);
      break;
    case ShapeGuarantee::kDomainDisjoint:
      m->strategy = "domain-request";
      policy = std::make_unique<HashDomainGuidedPolicy>(nodes);
      strategy = MakeDomainRequestTransducer(&timed);
      break;
    case ShapeGuarantee::kNone:
      return Status::Ok();
  }
  CALM_ASSIGN_OR_RETURN(Instance expected, query.Eval(input));
  auto make_network = [&]() -> Result<std::unique_ptr<TransducerNetwork>> {
    auto network = std::make_unique<TransducerNetwork>(nodes, strategy.get(),
                                                       policy.get(), model);
    CALM_RETURN_IF_ERROR(network->Initialize(input));
    return network;
  };

  std::unique_ptr<TransducerNetwork> holder;
  auto make_raw = [&]() -> Result<TransducerNetwork*> {
    CALM_ASSIGN_OR_RETURN(holder, make_network());
    return holder.get();
  };
  ConsistencyOptions co;
  co.random_runs = 2;
  co.seed = program.seed;
  Result<Instance> async_out = trace->Span(
      "transducer.strategy_ms", [&] { return RunConsistently(make_raw, co); });
  CALM_RETURN_IF_ERROR(async_out.status());
  m->strategy_outputs_match &= *async_out == expected;

  // The fault and BSP runs are the stage's RunToQuiescence calls: the
  // transducer + net layer, its statistics, and its self time (the run less
  // the wall time its local query evaluations covered).
  auto add_run = [&](const RunResult& run, uint64_t covered_before) {
    const double run_ns = static_cast<double>(trace->last_span_ns());
    const double local_ns =
        static_cast<double>(local.covered_ns() - covered_before);
    trace->Add("transducer.run_ms", run_ns / 1e6);
    trace->Add("net.run_self_ms", (run_ns - local_ns) / 1e6);
    trace->Add("net.transitions", run.stats.transitions);
    trace->Add("net.heartbeats", run.stats.heartbeats);
    trace->Add("net.messages_sent", run.stats.messages_sent);
    trace->Add("net.messages_delivered", run.stats.messages_delivered);
    trace->Add("net.supersteps", run.supersteps);
  };

  calm::net::FaultPlan plan = calm::net::FaultPlan::Random(
      MixSeed(program.seed, 0xFA17), calm::net::FaultProfile::Chaos());
  RunOptions faulted;
  faulted.faults = &plan;
  CALM_ASSIGN_OR_RETURN(std::unique_ptr<TransducerNetwork> fault_net,
                        make_network());
  uint64_t covered = local.covered_ns();
  Result<RunResult> fault_run = trace->Span("transducer.fault_ms", [&] {
    return RunToQuiescence(*fault_net, faulted);
  });
  CALM_RETURN_IF_ERROR(fault_run.status());
  add_run(*fault_run, covered);
  m->strategy_outputs_match &=
      fault_run->quiesced && fault_run->output == expected;
  trace->Add("fault.events", plan.log().size());

  RunOptions bsp;
  bsp.semantics = NetworkSemantics::kBsp;
  CALM_ASSIGN_OR_RETURN(std::unique_ptr<TransducerNetwork> bsp_net,
                        make_network());
  covered = local.covered_ns();
  Result<RunResult> bsp_run = trace->Span(
      "transducer.bsp_ms", [&] { return RunToQuiescence(*bsp_net, bsp); });
  CALM_RETURN_IF_ERROR(bsp_run.status());
  add_run(*bsp_run, covered);
  m->strategy_outputs_match &= bsp_run->quiesced && bsp_run->output == expected;
  m->bsp_supersteps = bsp_run->supersteps;

  trace->Add("transducer.local_evals", local.evals.load());
  trace->Add("transducer.local_eval_ms", Ms(local.eval_ns.load()));
  return Status::Ok();
}

class Survey final : public Workload {
 public:
  // Seven shapes round-robin. A 50-second run classifies each program two
  // or three times; the pool is large so that a run's mix of programs
  // varies little with the seed.
  static constexpr size_t kPool = 7 * 160;

  explicit Survey(uint64_t seed)
      : options_(SurveyClassifyOptions()),
        previous_threads_(calm::DefaultThreads()) {
    calm::SetDefaultThreads(kCheckerThreads);
    calm::ThreadPool::Global();  // starts the checker pool's threads
    for (size_t k = 0; k < kPool; ++k) {
      calm::workload::FuzzerOptions knobs;
      knobs.seed = MixSeed(seed, k);
      knobs.shape = static_cast<calm::workload::ProgramShape>(
          k % calm::workload::kProgramShapeCount);
      pool_.push_back(calm::workload::GenerateProgram(knobs));
    }
    records_.resize(kPool);
  }

  // Stops the checker pool's threads, so that each set-up starts them
  // again, and leaves the default thread count as it was.
  ~Survey() override {
    calm::SetDefaultThreads(1);
    calm::ThreadPool::Global();
    calm::SetDefaultThreads(previous_threads_);
  }

  size_t pool_size() const override { return pool_.size(); }

  Status Run(size_t k) override {
    Result<calm::workload::Classification> c =
        calm::workload::ClassifyProgram(pool_[k % kPool], options_);
    if (!c.ok()) return c.status();
    CALM_RETURN_IF_ERROR(corpus_.Add(c->record));
    for (const calm::workload::Divergence& d : c->divergences) {
      CALM_RETURN_IF_ERROR(corpus_.AddDivergence(d));
    }
    last_ = std::move(c).value();
    return Status::Ok();
  }

  Status Check(size_t k) override {
    if (!last_.divergences.empty()) {
      const calm::workload::Divergence& d = last_.divergences.front();
      return InternalError("program " + std::to_string(k) + " diverged at " +
                           d.stage + ": " + d.detail);
    }
    if (!last_.record.conformant) {
      return InternalError("program " + std::to_string(k) + " not conformant");
    }
    records_[k % kPool] = last_.record;
    return Status::Ok();
  }

  Status RunTraced(size_t k, Trace* trace) override {
    CALM_ASSIGN_OR_RETURN(mirror_,
                          MirrorClassify(pool_[k % kPool], options_, trace));
    return Status::Ok();
  }

  Status CheckTraced(size_t k) override {
    return CompareMirror(mirror_, records_[k % kPool]);
  }

 private:
  ClassifyOptions options_;
  size_t previous_threads_;
  std::vector<GeneratedProgram> pool_;
  calm::workload::Corpus corpus_;  // never opened: in memory, no fsync
  calm::workload::Classification last_;
  std::vector<CorpusRecord> records_;  // from the untraced pass, by item
  MirrorRecord mirror_;
};

}  // namespace

Result<MirrorRecord> MirrorClassify(const GeneratedProgram& program,
                                    const ClassifyOptions& options,
                                    Trace* trace) {
  MirrorRecord m;
  Result<calm::datalog::Program> parsed = trace->Span(
      "datalog.parse_ms", [&] { return calm::datalog::Parse(program.text); });
  CALM_RETURN_IF_ERROR(parsed.status());
  trace->Add("datalog.rules", parsed->rules.size());
  std::string name = std::string("fuzz-") +
                     calm::workload::ProgramShapeName(program.shape) + "-" +
                     std::to_string(program.seed);
  Result<DatalogQuery> query = trace->Span("datalog.create_ms", [&] {
    return DatalogQuery::Create(*parsed, name, program.semantics);
  });
  CALM_RETURN_IF_ERROR(query.status());
  m.fragment = query->fragment().FragmentName();
  trace->Aside([&] {
    Result<calm::datalog::Stratification> strata =
        calm::datalog::Stratify(query->program(), query->info());
    if (strata.ok()) trace->Add("datalog.strata", strata->stratum_count);
  });

  // The ladder, symmetry on then off, and the preservation sweeps, all
  // through one TimedQuery: the checker -> engine boundary.
  QueryCounters checker;
  TimedQuery timed(*query, &checker);
  ExhaustiveOptions base;
  base.domain_size = options.domain_size;
  base.max_facts_i = options.max_facts_i;
  base.fresh_values = options.fresh_values;
  base.threads = options.threads;
  Result<Ladder> ladder = trace->Span("monotonicity.ladder_ms", [&] {
    return calm::monotonicity::ComputeLadder(timed, options.max_i, base);
  });
  CALM_RETURN_IF_ERROR(ladder.status());
  uint64_t ladder_ns = static_cast<uint64_t>(trace->last_span_ns());
  const uint64_t sym_on_pairs = checker.pair_checks.load();
  m.ladder = *ladder;
  m.class_bucket = BucketOf(*ladder);
  if (options.differential) {
    ExhaustiveOptions full = base;
    full.symmetry = calm::SymmetryMode::kOff;
    Result<Ladder> reference = trace->Span("monotonicity.ladder_nosym_ms", [&] {
      return calm::monotonicity::ComputeLadder(timed, options.max_i, full);
    });
    CALM_RETURN_IF_ERROR(reference.status());
    ladder_ns += static_cast<uint64_t>(trace->last_span_ns());
    trace->Add("checker.pair_checks_sym_off",
               checker.pair_checks.load() - sym_on_pairs);
  }
  trace->Add("checker.pair_checks_sym_on", sym_on_pairs);
  trace->Add("monotonicity.ladder_self_ms",
             Ms(ladder_ns) - Ms(checker.covered_ns()));

  const ShapeGuarantee guarantee = calm::workload::GuaranteeFor(program.shape);
  Status preservation = trace->Span("monotonicity.preservation_ms", [&] {
    using calm::monotonicity::PreservationClass;
    calm::monotonicity::PreservationOptions po;
    po.domain_size = options.domain_size;
    po.max_facts = options.max_facts_i;
    po.threads = options.threads;
    CALM_RETURN_IF_ERROR(FindPreservationViolation(
                             timed, PreservationClass::kExtensions, po)
                             .status());
    if (guarantee == ShapeGuarantee::kMonotone && !program.uses_constants) {
      CALM_RETURN_IF_ERROR(
          FindPreservationViolation(
              timed, PreservationClass::kInjectiveHomomorphisms, po)
              .status());
    }
    return Status::Ok();
  });
  CALM_RETURN_IF_ERROR(preservation);
  trace->Add("checker.base_evals", checker.evals.load());
  trace->Add("checker.base_eval_ms",
             Ms(checker.eval_ns.load() + checker.union_evaluator_ns.load()));
  trace->Add("checker.union_evaluators", checker.union_evaluators.load());
  trace->Add("checker.pair_checks", checker.pair_checks.load());
  trace->Add("checker.pair_check_ns", checker.pair_check_ns.load());

  // The network-sized input, as ClassifyProgram draws it.
  Instance input = calm::workload::RandomInstance(
      query->input_schema(), options.network_facts, options.network_domain,
      MixSeed(program.seed, 0x1157));
  if (program.semantics == DatalogQuery::Semantics::kStratified) {
    calm::datalog::EvalStats stats;
    Result<Instance> full = trace->Span("datalog.eval_ms", [&] {
      return calm::datalog::Evaluate(query->program(), input, {}, &stats);
    });
    CALM_RETURN_IF_ERROR(full.status());
    trace->Add("datalog.derived_facts", stats.derived_facts);
    trace->Add("datalog.fixpoint_rounds", stats.fixpoint_rounds);
    trace->Add("datalog.rule_applications", stats.rule_applications);
  }

  if (options.run_strategies) {
    CALM_RETURN_IF_ERROR(
        MirrorStrategies(program, *query, input, guarantee, &m, trace));
  }
  return m;
}

Status CompareMirror(const MirrorRecord& mirror, const CorpusRecord& record) {
  auto differ = [&](const std::string& what) {
    return InternalError("traced mirror of program " +
                         std::to_string(record.seed) + " differs from "
                         "ClassifyProgram: " + what);
  };
  if (mirror.fragment != record.fragment) return differ("fragment");
  if (mirror.class_bucket != record.class_bucket) return differ("class");
  if (mirror.strategy != record.strategy) return differ("strategy");
  if (mirror.bsp_supersteps != record.bsp_supersteps) {
    return differ("BSP supersteps");
  }
  if (!mirror.strategy_outputs_match) return differ("strategy output != Q(I)");
  const std::vector<LadderRow>& a = mirror.ladder.rows;
  const std::vector<LadderRow>& b = record.ladder.rows;
  if (a.size() != b.size()) return differ("ladder row count");
  for (size_t n = 0; n < a.size(); ++n) {
    if (a[n].i != b[n].i || a[n].in_m != b[n].in_m ||
        a[n].in_distinct != b[n].in_distinct ||
        a[n].in_disjoint != b[n].in_disjoint ||
        !SameWitness(a[n].m_witness, b[n].m_witness) ||
        !SameWitness(a[n].distinct_witness, b[n].distinct_witness) ||
        !SameWitness(a[n].disjoint_witness, b[n].disjoint_witness)) {
      return differ("ladder row " + std::to_string(n));
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<Workload>> MakeSurvey(uint64_t seed) {
  return std::unique_ptr<Workload>(std::make_unique<Survey>(seed));
}

}  // namespace perfbench
