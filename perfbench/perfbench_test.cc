// The benchmark's own tests: the TimedQuery decorator changes no verdict,
// witness or strategy output; the traced survey mirror agrees with
// ClassifyProgram; every workload's ops pass their checks on two seeds; and
// the metric and workload names are well formed and match BENCHMARK.json.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/json.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "harness.h"
#include "timed_query.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/instance_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using calm::Instance;
using calm::Value;
using calm::datalog::DatalogQuery;
using calm::monotonicity::Counterexample;
using calm::monotonicity::Ladder;
using calm::workload::GeneratedProgram;
using calm::workload::ProgramShape;

constexpr uint64_t kSeeds[] = {1, 2};

GeneratedProgram Program(size_t shape, uint64_t seed) {
  calm::workload::FuzzerOptions knobs;
  knobs.seed = MixSeed(seed, shape);
  knobs.shape = static_cast<ProgramShape>(shape);
  return calm::workload::GenerateProgram(knobs);
}

DatalogQuery Create(const GeneratedProgram& program) {
  calm::Result<calm::datalog::Program> parsed =
      calm::datalog::Parse(program.text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  calm::Result<DatalogQuery> q =
      DatalogQuery::Create(*parsed, "p", program.semantics);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

std::string Witness(const std::optional<Counterexample>& w) {
  return w.has_value() ? w->ToString() : "-";
}

std::string Render(const Ladder& ladder) {
  std::string out = ladder.ToString();
  for (const auto& row : ladder.rows) {
    out += Witness(row.m_witness) + Witness(row.distinct_witness) +
           Witness(row.disjoint_witness);
  }
  return out;
}

TEST(TimedQueryTest, LadderVerdictsAndWitnessesAreUnchanged) {
  for (uint64_t seed : kSeeds) {
    for (size_t shape = 0; shape < calm::workload::kProgramShapeCount;
         ++shape) {
      GeneratedProgram program = Program(shape, seed);
      DatalogQuery q = Create(program);
      calm::monotonicity::ExhaustiveOptions options;
      options.domain_size = 2;
      options.max_facts_i = 2;
      options.threads = 2;
      QueryCounters counters;
      TimedQuery timed(q, &counters);
      for (calm::SymmetryMode mode :
           {calm::SymmetryMode::kAuto, calm::SymmetryMode::kOff}) {
        options.symmetry = mode;
        calm::Result<Ladder> plain =
            calm::monotonicity::ComputeLadder(q, 2, options);
        calm::Result<Ladder> decorated =
            calm::monotonicity::ComputeLadder(timed, 2, options);
        ASSERT_TRUE(plain.ok() && decorated.ok()) << program.text;
        EXPECT_EQ(Render(*plain), Render(*decorated)) << program.text;
      }
      EXPECT_GT(counters.evals.load() + counters.pair_checks.load(), 0u);
    }
  }
}

TEST(TimedQueryTest, StrategyOutputsAreUnchanged) {
  using namespace calm::transducer;
  Network nodes{Value::FromInt(900), Value::FromInt(901), Value::FromInt(902)};
  for (uint64_t seed : kSeeds) {
    for (size_t shape = 0; shape < calm::workload::kProgramShapeCount;
         ++shape) {
      GeneratedProgram program = Program(shape, seed);
      calm::workload::ShapeGuarantee guarantee =
          calm::workload::GuaranteeFor(program.shape);
      if (guarantee == calm::workload::ShapeGuarantee::kNone) continue;
      DatalogQuery q = Create(program);
      QueryCounters counters;
      TimedQuery timed(q, &counters);
      Instance input = calm::workload::RandomInstance(q.input_schema(), 6, 4,
                                                      seed);
      for (NetworkSemantics semantics :
           {NetworkSemantics::kAsync, NetworkSemantics::kBsp}) {
        std::string outputs[2];
        size_t transitions[2] = {0, 0};
        for (int decorated = 0; decorated < 2; ++decorated) {
          const calm::Query* query =
              decorated ? static_cast<const calm::Query*>(&timed) : &q;
          std::unique_ptr<DistributionPolicy> policy =
              std::make_unique<HashPolicy>(nodes);
          std::unique_ptr<Transducer> strategy;
          ModelOptions model = ModelOptions::PolicyAware();
          if (guarantee == calm::workload::ShapeGuarantee::kMonotone) {
            strategy = MakeBroadcastTransducer(query);
            model = ModelOptions::Original();
          } else if (guarantee ==
                     calm::workload::ShapeGuarantee::kDomainDistinct) {
            strategy = MakeAbsenceTransducer(query);
          } else {
            policy = std::make_unique<HashDomainGuidedPolicy>(nodes);
            strategy = MakeDomainRequestTransducer(query);
          }
          TransducerNetwork network(nodes, strategy.get(), policy.get(),
                                    model);
          ASSERT_TRUE(network.Initialize(input).ok());
          RunOptions options;
          options.semantics = semantics;
          calm::Result<RunResult> run = RunToQuiescence(network, options);
          ASSERT_TRUE(run.ok() && run->quiesced) << program.text;
          outputs[decorated] = run->output.ToString();
          transitions[decorated] = run->stats.transitions;
        }
        EXPECT_EQ(outputs[0], outputs[1]) << program.text;
        EXPECT_EQ(transitions[0], transitions[1]) << program.text;
      }
      EXPECT_GT(counters.evals.load(), 0u);
    }
  }
}

TEST(SurveyMirrorTest, AgreesWithClassifyProgram) {
  calm::workload::ClassifyOptions options = SurveyClassifyOptions();
  for (uint64_t seed : kSeeds) {
    for (size_t shape = 0; shape < calm::workload::kProgramShapeCount;
         ++shape) {
      GeneratedProgram program = Program(shape, seed);
      calm::Result<calm::workload::Classification> c =
          calm::workload::ClassifyProgram(program, options);
      ASSERT_TRUE(c.ok() && c->record.conformant) << program.text;
      Trace trace;
      calm::Result<MirrorRecord> mirror =
          MirrorClassify(program, options, &trace);
      ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
      EXPECT_TRUE(CompareMirror(*mirror, c->record).ok())
          << CompareMirror(*mirror, c->record).ToString();
      EXPECT_GT(trace.Totals()["monotonicity.ladder_ms"], 0);

      // Negative control: a record the mirror did not see is caught.
      calm::workload::CorpusRecord wrong = c->record;
      wrong.class_bucket = wrong.class_bucket == "M" ? "Mdistinct" : "M";
      EXPECT_FALSE(CompareMirror(*mirror, wrong).ok());
    }
  }
}

TEST(WorkloadTest, OpsPassTheirChecksOnTwoSeeds) {
  for (const WorkloadSpec& spec : Workloads()) {
    for (uint64_t seed : kSeeds) {
      calm::Result<std::unique_ptr<Workload>> w = spec.make(seed);
      ASSERT_TRUE(w.ok()) << spec.name << ": " << w.status().ToString();
      Trace trace;
      for (size_t k = 0; k < 3; ++k) {
        calm::Status run = (*w)->Run(k);
        ASSERT_TRUE(run.ok()) << spec.name << ": " << run.ToString();
        calm::Status check = (*w)->Check(k);
        ASSERT_TRUE(check.ok()) << spec.name << ": " << check.ToString();
      }
      for (size_t k = 0; k < 3; ++k) {
        calm::Status run = (*w)->RunTraced(k, &trace);
        ASSERT_TRUE(run.ok()) << spec.name << ": " << run.ToString();
        calm::Status check = (*w)->CheckTraced(k);
        ASSERT_TRUE(check.ok()) << spec.name << ": " << check.ToString();
      }
      EXPECT_FALSE(trace.spans().empty()) << spec.name;
    }
  }
}

TEST(NamesTest, WellFormedUniqueAndListedInBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  calm::Result<calm::Json> json = calm::Json::Parse(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  struct {
    const char* key;
    const std::vector<MetricSpec>* metrics;
  } groups[] = {{"end_to_end", &EndToEndMetrics()},
                {"per_layer", &PerLayerMetrics()}};
  std::set<std::string> seen;
  for (const auto& group : groups) {
    calm::Result<const calm::Json*> listed = json->GetArray(group.key);
    ASSERT_TRUE(listed.ok()) << group.key;
    ASSERT_EQ((*listed)->items().size(), group.metrics->size()) << group.key;
    for (size_t i = 0; i < group.metrics->size(); ++i) {
      const MetricSpec& m = (*group.metrics)[i];
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      const calm::Json& entry = (*listed)->items()[i];
      EXPECT_EQ(*entry.GetString("name"), m.name);
      EXPECT_EQ(*entry.GetString("unit"), m.unit);
    }
  }
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
  }
  calm::Result<const calm::Json*> workloads = json->GetArray("workloads");
  ASSERT_TRUE(workloads.ok());
  for (const calm::Json& entry : (*workloads)->items()) {
    const std::string name = *entry.GetString("name");
    EXPECT_TRUE(std::any_of(
        Workloads().begin(), Workloads().end(),
        [&](const WorkloadSpec& spec) { return name == spec.name; }))
        << "BENCHMARK.json lists " << name << ", which perfbench lacks";
  }
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("_lead"));
  EXPECT_FALSE(ValidMetricName("p90/ms"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

}  // namespace
}  // namespace perfbench
