#include "datalog/program.h"

#include <cstdio>
#include <cstdlib>

#include "datalog/parser.h"
#include "datalog/wellfounded.h"

namespace calm::datalog {

namespace {

// FirstRetracted through the prepared program's incremental evaluator: the
// Q(i) fixpoint stays materialized across calls and each j runs as an
// epoch-scoped insertion delta. Overlays that only grow the fixpoint prove
// Q(i) ⊆ Q(i ∪ j) without materializing any output, so the common monotone
// check is just the delta propagation plus a rollback.
class IncrementalUnionEvaluator : public UnionEvaluator {
 public:
  IncrementalUnionEvaluator(std::shared_ptr<const PreparedProgram> prepared,
                            std::unique_ptr<IncrementalEval> inc)
      : prepared_(std::move(prepared)), inc_(std::move(inc)) {}

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    CALM_ASSIGN_OR_RETURN(
        IncrementalEval::Overlay overlay,
        inc_->EvalOverlay(j, &out_, /*materialize=*/false));
    if (overlay.superset_of_base) return std::optional<Fact>();
    auto it = out_.begin();
    for (const Fact& f : base_facts) {
      while (it != out_.end() && *it < f) ++it;
      if (it == out_.end() || !(*it == f)) return std::optional<Fact>(f);
    }
    return std::optional<Fact>();
  }

 private:
  std::shared_ptr<const PreparedProgram> prepared_;  // keeps inc_'s prog alive
  std::unique_ptr<IncrementalEval> inc_;
  std::vector<Fact> out_;  // Q(i ∪ j), reused across calls
};

}  // namespace

Result<DatalogQuery> DatalogQuery::Create(Program program, std::string name,
                                          Semantics semantics,
                                          EvalOptions options) {
  DatalogQuery q;
  // Analyze, stratify (under kStratified), and compile exactly once; Eval
  // only runs the prepared form.
  Result<PreparedProgram> prepared =
      semantics == Semantics::kStratified
          ? PreparedProgram::Prepare(program, options)
          : PreparedProgram::PrepareFixedNegation(program, options);
  CALM_RETURN_IF_ERROR(prepared.status());
  q.prepared_ =
      std::make_shared<const PreparedProgram>(std::move(prepared).value());
  const ProgramInfo& info = q.prepared_->info();
  q.fragment_ = ClassifyFragment(program, info);
  CALM_ASSIGN_OR_RETURN(q.output_schema_, OutputSchema(program, info));
  if (q.output_schema_.empty()) {
    return InvalidArgumentError(
        "program has no output relations (mark one with .output or name it O)");
  }
  for (const RelationDecl& r : info.edb.relations()) {
    if (r.name == AdomRelation()) continue;
    CALM_RETURN_IF_ERROR(q.input_schema_.AddRelation(r));
  }
  q.program_ = std::move(program);
  q.name_ = name.empty() ? q.fragment_.FragmentName() : std::move(name);
  q.semantics_ = semantics;
  return q;
}

DatalogQuery DatalogQuery::FromTextOrDie(std::string_view text,
                                         std::string name, Semantics semantics,
                                         EvalOptions options) {
  Result<Program> program = Parse(text);
  if (!program.ok()) {
    std::fprintf(stderr, "FromTextOrDie parse error: %s\n",
                 program.status().ToString().c_str());
    std::abort();
  }
  Result<DatalogQuery> q = Create(std::move(program).value(), std::move(name),
                                  semantics, options);
  if (!q.ok()) {
    std::fprintf(stderr, "FromTextOrDie invalid program: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

Result<Instance> DatalogQuery::EvalSeeded(
    std::initializer_list<const Instance*> parts) const {
  if (semantics_ == Semantics::kStratified) {
    return prepared_->EvalParts(parts, &input_schema_, &output_schema_);
  }
  CALM_ASSIGN_OR_RETURN(
      WellFoundedModel model,
      EvaluateWellFounded(*prepared_, parts, &input_schema_));
  return model.definitely.Restrict(output_schema_);
}

Result<Instance> DatalogQuery::Eval(const Instance& input) const {
  return EvalSeeded({&input});
}

Result<Instance> DatalogQuery::EvalUnion(const Instance& a,
                                         const Instance& b) const {
  return EvalSeeded({&a, &b});
}

std::unique_ptr<UnionEvaluator> DatalogQuery::MakeUnionEvaluator(
    const Instance& i) const {
  // The well-founded alternation has no single materialized fixpoint to
  // continue from; it keeps the overlay route.
  if (semantics_ == Semantics::kStratified) {
    return std::make_unique<IncrementalUnionEvaluator>(
        prepared_,
        prepared_->BeginIncremental(i, &input_schema_, &output_schema_));
  }
  return Query::MakeUnionEvaluator(i);
}

}  // namespace calm::datalog
