// Randomized differential harness: the bytecode engine against the
// textbook reference evaluator in tests/reference_eval.h (DESIGN.md "One
// engine, one independent oracle"). Programs and instances are generated
// from fixed seeds, so every run checks the same corpus. Outputs (ILOG
// outputs up to a renaming of invented values), success or failure under a
// small fact cap, derived_facts, the well-founded model and checker
// verdicts must agree; the engine-only counters (rule_applications,
// fixpoint_rounds) have no reference counterpart. The reference shares only
// the parser with the engine.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/instance.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "monotonicity/checker.h"
#include "reference_eval.h"
#include "workload/graph_gen.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// The fixed vocabulary: stratum 0 is edb, higher strata are idb. Negated
// body atoms only reference strictly lower strata (except in the
// fixed-negation variant), so generated programs are always stratifiable.
struct RelSpec {
  const char* name;
  uint32_t arity;
  size_t stratum;
};

const std::vector<RelSpec> kRels = {
    {"E", 2, 0}, {"F", 1, 0}, {"G", 3, 0},  // edb
    {"P", 2, 1}, {"Q", 1, 1},               // idb, stratum 1
    {"R", 2, 2}, {"S", 1, 2},               // idb, stratum 2
};
// The same vocabulary plus Adom as an edb relation, so programs read the
// seeded active domain, positively and under negation.
const std::vector<RelSpec> kRelsWithAdom = [] {
  std::vector<RelSpec> rels = kRels;
  rels.push_back({"Adom", 1, 0});
  return rels;
}();
constexpr const char* kVars[] = {"x", "y", "z", "w", "v"};

size_t Rand(std::mt19937& rng, size_t bound) {
  return std::uniform_int_distribution<size_t>(0, bound - 1)(rng);
}

bool Chance(std::mt19937& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

// One random safe rule over `rels` for head relation `rels[head]`. Head,
// negation, and inequality arguments only use variables bound by a positive
// body atom. `max_neg_stratum` bounds the strata negated atoms may reference
// (rels[head].stratum for the fixed-negation corpus, one below otherwise).
std::string RandomRule(std::mt19937& rng, const std::vector<RelSpec>& rels,
                       size_t head, size_t max_neg_stratum, bool invent) {
  const size_t stratum = rels[head].stratum;
  std::vector<std::string> bound;
  std::string body;
  const size_t natoms = 1 + Rand(rng, 3);
  for (size_t a = 0; a < natoms; ++a) {
    size_t rel = Rand(rng, rels.size());
    while (rels[rel].stratum > stratum) rel = Rand(rng, rels.size());
    if (!body.empty()) body += ", ";
    body += rels[rel].name;
    body += '(';
    for (uint32_t i = 0; i < rels[rel].arity; ++i) {
      if (i > 0) body += ", ";
      if (Chance(rng, 0.15)) {
        body += std::to_string(Rand(rng, 5));
      } else {
        const char* var = kVars[Rand(rng, 5)];
        body += var;
        bound.push_back(var);
      }
    }
    body += ')';
  }
  auto bound_or_const = [&]() -> std::string {
    if (!bound.empty() && !Chance(rng, 0.1)) {
      return bound[Rand(rng, bound.size())];
    }
    return std::to_string(Rand(rng, 5));
  };
  if (Chance(rng, 0.4)) {
    size_t rel = Rand(rng, rels.size());
    while (rels[rel].stratum > max_neg_stratum) rel = Rand(rng, rels.size());
    body += ", !";
    body += rels[rel].name;
    body += '(';
    for (uint32_t i = 0; i < rels[rel].arity; ++i) {
      if (i > 0) body += ", ";
      body += bound_or_const();
    }
    body += ')';
  }
  if (bound.size() >= 2 && Chance(rng, 0.3)) {
    body += ", " + bound[Rand(rng, bound.size())] + " != " +
            bound[Rand(rng, bound.size())];
  }
  std::string rule = rels[head].name;
  rule += '(';
  for (uint32_t i = 0; i < rels[head].arity; ++i) {
    if (i > 0) rule += ", ";
    if (invent && i == 0) {
      rule += '*';
    } else {
      rule += bound_or_const();
    }
  }
  rule += ") :- " + body + ".";
  return rule;
}

// `max_neg_stratum_delta` = 1 keeps negation strictly below the head's
// stratum (stratifiable); 0 allows same-stratum negation (only valid for
// the fixed-negation evaluator). `invention` marks the top-stratum binary
// relation's rules as inventing their first position (ILOG).
std::string RandomProgram(std::mt19937& rng, size_t max_neg_stratum_delta,
                          bool invention,
                          const std::vector<RelSpec>& rels = kRels) {
  std::string text;
  for (size_t rel = 0; rel < rels.size(); ++rel) {
    if (rels[rel].stratum == 0) continue;
    const size_t nrules = 1 + Rand(rng, 3);
    const size_t neg_bound =
        rels[rel].stratum >= max_neg_stratum_delta
            ? rels[rel].stratum - max_neg_stratum_delta
            : 0;
    for (size_t r = 0; r < nrules; ++r) {
      const bool invent =
          invention && rels[rel].stratum == 2 && rels[rel].arity == 2;
      text += RandomRule(rng, rels, rel, neg_bound, invent);
      text += '\n';
    }
  }
  return text;
}

Instance RandomInstance(std::mt19937& rng) {
  Instance in;
  const size_t nfacts = Rand(rng, 12);
  for (size_t i = 0; i < nfacts; ++i) {
    switch (Rand(rng, 3)) {
      case 0:
        in.Insert(Fact("E", {V(Rand(rng, 5)), V(Rand(rng, 5))}));
        break;
      case 1:
        in.Insert(Fact("F", {V(Rand(rng, 5))}));
        break;
      default:
        in.Insert(
            Fact("G", {V(Rand(rng, 5)), V(Rand(rng, 5)), V(Rand(rng, 5))}));
        break;
    }
  }
  return in;
}

enum class Mode { kStratified, kIlog, kFixedNegation };

// Fact caps every case runs under, on both sides: a roomy one (random
// outputs stay below it; divergent ILOG programs do not) and a tight one
// that about one case in twenty exceeds, so error outcomes are compared
// too.
constexpr size_t kFactCaps[] = {64, 16};

// Renders `in` with every invented value replaced by the head fact that
// introduced it: &n in R(&n, ā) becomes "R(ā)", recursively. Two ILOG runs
// agree up to a renaming of invented values iff the renderings are equal.
std::string RenderUpToInvention(const Program& program, const Instance& in) {
  std::set<uint32_t> inventing;
  for (const Rule& r : program.rules) {
    if (r.head.invents) inventing.insert(r.head.relation);
  }
  std::map<Value, Fact> origin;
  in.ForEachFact([&](uint32_t rel, const Tuple& t) {
    if (inventing.count(rel) > 0 && t.size() > 0 && t[0].is_invented()) {
      origin[t[0]] = Fact(rel, Tuple(t.begin() + 1, t.end()));
    }
  });
  std::function<std::string(Value)> name = [&](Value v) -> std::string {
    auto it = origin.find(v);
    if (!v.is_invented() || it == origin.end()) return ValueToString(v);
    std::string s = NameOf(it->second.relation) + "(";
    for (size_t i = 0; i < it->second.args.size(); ++i) {
      s += (i > 0 ? ", " : "") + name(it->second.args[i]);
    }
    return s + ")";
  };
  std::set<std::string> facts;
  in.ForEachFact([&](uint32_t rel, const Tuple& t) {
    std::string s = NameOf(rel) + "(";
    for (size_t i = 0; i < t.size(); ++i) s += (i > 0 ? ", " : "") + name(t[i]);
    facts.insert(s + ")");
  });
  std::string out;
  for (const std::string& f : facts) out += f + "\n";
  return out;
}

// Requires the same success or failure; on failure, the same status code.
template <typename T, typename U>
bool SameOutcome(const Result<T>& engine, const Result<U>& ref,
                 const std::string& ctx) {
  EXPECT_EQ(engine.ok(), ref.ok())
      << ctx << "\nengine: " << (engine.ok() ? "ok" : engine.status().message())
      << "\nreference: " << (ref.ok() ? "ok" : ref.status().message());
  if (engine.ok() != ref.ok()) return false;
  if (!engine.ok()) {
    EXPECT_EQ(engine.status().code(), ref.status().code()) << ctx;
    return false;
  }
  return true;
}

// Evaluates one (program, instance) on the engine and on the reference at
// each fact cap and requires the same outcome: output instance (ILOG: up to
// invented-value renaming), success or status code, and derived_facts.
// Fixed-negation programs are also compared under the well-founded
// semantics.
void ExpectMatchesReference(const std::string& text, const Instance& input,
                            Mode mode, const std::string& label,
                            std::span<const size_t> caps = kFactCaps) {
  Result<Program> program = Parse(text);
  ASSERT_TRUE(program.ok()) << label << "\ngenerator bug:\n" << text;
  for (size_t cap : caps) {
    EvalOptions opts;
    opts.max_total_facts = cap;
    reference::Options ref_opts;
    ref_opts.max_total_facts = cap;
    EvalStats stats;
    size_t ref_derived = 0;
    Result<Instance> got = InternalError("unset");
    Result<Instance> want = InternalError("unset");
    switch (mode) {
      case Mode::kStratified:
        got = Evaluate(*program, input, opts, &stats);
        want = reference::Evaluate(*program, input, ref_opts, &ref_derived);
        break;
      case Mode::kIlog:
        got = EvaluateIlog(*program, input, opts, &stats);
        want =
            reference::EvaluateIlog(*program, input, ref_opts, &ref_derived);
        break;
      case Mode::kFixedNegation:
        got = EvaluateWithFixedNegation(*program, input, input, opts, &stats);
        want = reference::EvaluateWithFixedNegation(*program, input, input,
                                                    ref_opts, &ref_derived);
        break;
    }
    const std::string ctx = label + " cap " + std::to_string(cap) +
                            "\nprogram:\n" + text +
                            "input: " + input.ToString();
    if (SameOutcome(got, want, ctx)) {
      if (mode == Mode::kIlog) {
        EXPECT_EQ(RenderUpToInvention(*program, *got),
                  RenderUpToInvention(*program, *want))
            << ctx;
      } else {
        EXPECT_EQ(got->ToString(), want->ToString()) << ctx;
      }
      EXPECT_EQ(stats.derived_facts, ref_derived) << ctx;
    }
    if (mode != Mode::kFixedNegation) continue;
    Result<WellFoundedModel> wf = EvaluateWellFounded(*program, input, opts);
    Result<reference::WellFoundedModel> ref_wf =
        reference::EvaluateWellFounded(*program, input, ref_opts);
    if (SameOutcome(wf, ref_wf, ctx + "\n(well-founded)")) {
      EXPECT_EQ(wf->definitely.ToString(), ref_wf->definitely.ToString())
          << ctx << "\n(well-founded, definitely)";
      EXPECT_EQ(wf->possibly.ToString(), ref_wf->possibly.ToString())
          << ctx << "\n(well-founded, possibly)";
    }
  }
}

TEST(EngineDiffTest, StratifiedRandomPrograms) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(1000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/1,
                                     /*invention=*/false);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng);
      ExpectMatchesReference(text, input, Mode::kStratified,
                             "stratified seed " + std::to_string(seed));
    }
  }
}

TEST(EngineDiffTest, IlogInventionPrograms) {
  for (unsigned seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(2000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/1,
                                     /*invention=*/true);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng);
      ExpectMatchesReference(text, input, Mode::kIlog,
                             "ilog seed " + std::to_string(seed));
    }
  }
}

TEST(EngineDiffTest, FixedNegationPrograms) {
  // Same-stratum negation allowed: exercises the Gamma-operator evaluator
  // and the well-founded alternation on unstratifiable shapes.
  for (unsigned seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(3000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/0,
                                     /*invention=*/false);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng);
      ExpectMatchesReference(text, input, Mode::kFixedNegation,
                             "fixed-negation seed " + std::to_string(seed));
    }
  }
}

TEST(EngineDiffTest, AdomRandomPrograms) {
  for (unsigned seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(5000 + seed);
    const std::string stratified = RandomProgram(
        rng, /*max_neg_stratum_delta=*/1, /*invention=*/false, kRelsWithAdom);
    const std::string fixed = RandomProgram(
        rng, /*max_neg_stratum_delta=*/0, /*invention=*/false, kRelsWithAdom);
    Instance input = RandomInstance(rng);
    ExpectMatchesReference(stratified, input, Mode::kStratified,
                           "adom stratified seed " + std::to_string(seed));
    ExpectMatchesReference(fixed, input, Mode::kFixedNegation,
                           "adom fixed-negation seed " + std::to_string(seed));
  }
}

// Checker verdicts: FindViolation drives full query evaluations through the
// prepared pipeline and the incremental union evaluator, so identical
// counterexamples (the whole verdict, not just existence) against the
// reference wrapped as a from-scratch NativeQuery pin the engine end to end.
TEST(EngineDiffTest, CheckerVerdictsMatch) {
  const struct {
    const char* name;
    const char* text;
    DatalogQuery::Semantics semantics;
  } kQueries[] = {
      {"tc", "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T",
       DatalogQuery::Semantics::kStratified},
      {"qtc",
       "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
       "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O",
       DatalogQuery::Semantics::kStratified},
      {"guarded",
       "O(x) :- F(x), !Q(x). Q(x) :- E(x, y), E(y, x). .output O",
       DatalogQuery::Semantics::kStratified},
      {"win-move", "Win(x) :- Move(x, y), !Win(y). .output Win",
       DatalogQuery::Semantics::kWellFounded},
  };
  monotonicity::ExhaustiveOptions options;
  options.domain_size = 2;
  options.max_facts_i = 2;
  options.fresh_values = 1;
  options.max_facts_j = 2;
  for (const auto& q : kQueries) {
    DatalogQuery engine = DatalogQuery::FromTextOrDie(q.text, q.name,
                                                      q.semantics);
    Result<std::unique_ptr<Query>> ref = reference::MakeQuery(
        ParseOrDie(q.text), q.name,
        q.semantics == DatalogQuery::Semantics::kWellFounded);
    ASSERT_TRUE(ref.ok()) << q.name;
    for (auto cls : {monotonicity::MonotonicityClass::kMonotone,
                     monotonicity::MonotonicityClass::kDomainDisjoint}) {
      auto a = monotonicity::FindViolation(engine, cls, options);
      auto b = monotonicity::FindViolation(**ref, cls, options);
      ASSERT_TRUE(a.ok()) << q.name;
      ASSERT_TRUE(b.ok()) << q.name;
      ASSERT_EQ(a->has_value(), b->has_value()) << q.name;
      if (a->has_value()) {
        EXPECT_EQ((*a)->ToString(), (*b)->ToString()) << q.name;
      }
    }
  }
}

// The random corpus keeps every semi-naive delta to tens of rows. A layered
// graph — 33 sources, each with an edge to each of 4 hubs, each hub with an
// edge to each of 33 sinks — drives transitive closure through the
// large-delta paths: round 1 scans a 264-row delta in two blocks and emits
// 4356 head rows, so the fused scan-probe flushes through the batched dedup
// insert mid-Eval, and round 2's delta is 1089 rows. The negation stratum
// on top runs the prefetched code-space anti-probe over all 1353 T rows.
// Layers keep the reference's nested loops to about 430k steps per program.
TEST(EngineDiffTest, LargeDeltasMatchReference) {
  constexpr uint64_t kSources = 33, kHubs = 4, kSinks = 33;
  Instance input;
  for (uint64_t h = 0; h < kHubs; ++h) {
    const uint64_t hub = kSources + h;
    for (uint64_t s = 0; s < kSources; ++s) {
      input.Insert(Fact("E", {V(s), V(hub)}));
    }
    for (uint64_t t = 0; t < kSinks; ++t) {
      input.Insert(Fact("E", {V(hub), V(kSources + kHubs + t)}));
    }
  }
  constexpr size_t kNoCap[] = {EvalOptions{}.max_total_facts};
  ExpectMatchesReference(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).", input,
      Mode::kStratified, "large TC", kNoCap);
  ExpectMatchesReference(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "U(x, y) :- T(x, y), !E(x, y).",
      input, Mode::kStratified, "large TC with negation", kNoCap);
}

// --- The oracle itself, against hand-computed answers ---------------------
// A reference that agreed with the engine by being wrong in the same way
// would make every test above vacuous; these pin it to answers worked out
// by hand from the paper's definitions.

TEST(ReferenceEvalTest, TransitiveClosureOnPath5) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  size_t derived = 0;
  Result<Instance> out =
      reference::Evaluate(p, workload::Path(5), {}, &derived);  // 0->..->4
  ASSERT_TRUE(out.ok()) << out.status();
  std::set<Tuple> want;
  for (uint64_t i = 0; i < 5; ++i) {
    for (uint64_t j = i + 1; j < 5; ++j) want.insert({V(i), V(j)});
  }
  const TupleSet& t = out->TuplesOf(InternName("T"));
  EXPECT_EQ(std::set<Tuple>(t.begin(), t.end()), want);
  EXPECT_EQ(derived, 10u);
  EXPECT_EQ(out->size(), 14u);  // 4 E facts + 10 T facts
}

TEST(ReferenceEvalTest, ComplementOfTcOnPath2) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O");
  size_t derived = 0;
  Result<Instance> out =
      reference::Evaluate(p, workload::Path(2), {}, &derived);  // 0->1
  ASSERT_TRUE(out.ok()) << out.status();
  const TupleSet& o = out->TuplesOf(InternName("O"));
  EXPECT_EQ(std::set<Tuple>(o.begin(), o.end()),
            (std::set<Tuple>{{V(0), V(0)}, {V(1), V(0)}, {V(1), V(1)}}));
  EXPECT_EQ(out->TuplesOf(InternName("Adom")).size(), 2u);  // seeded
  EXPECT_EQ(derived, 4u);  // T(0, 1) and three O facts
}

TEST(ReferenceEvalTest, WinMoveWellFoundedModel) {
  // 1 -> 2 -> 3 is a chain (3 has no move: lost, so 2 is won, 1 lost);
  // 4 <-> 5 is a cycle with no exit, a draw: both undefined.
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y). .output Win");
  Instance in{Fact("Move", {V(1), V(2)}), Fact("Move", {V(2), V(3)}),
              Fact("Move", {V(4), V(5)}), Fact("Move", {V(5), V(4)})};
  Result<reference::WellFoundedModel> wf =
      reference::EvaluateWellFounded(p, in);
  ASSERT_TRUE(wf.ok()) << wf.status();
  const uint32_t win = InternName("Win");
  const TupleSet& yes = wf->definitely.TuplesOf(win);
  const TupleSet& maybe = wf->possibly.TuplesOf(win);
  EXPECT_EQ(std::set<Tuple>(yes.begin(), yes.end()),
            (std::set<Tuple>{{V(2)}}));
  EXPECT_EQ(std::set<Tuple>(maybe.begin(), maybe.end()),
            (std::set<Tuple>{{V(2)}, {V(4)}, {V(5)}}));
  EXPECT_EQ(Instance::Difference(wf->possibly, wf->definitely).ToString(),
            (Instance{Fact("Win", {V(4)}), Fact("Win", {V(5)})}).ToString());
  EXPECT_TRUE(in.IsSubsetOf(wf->definitely));
}

TEST(ReferenceEvalTest, IlogSkolemInvention) {
  // N(*, x) invents f_N(x) once per x, shared by both rules: S = {1, 2} and
  // T = {2} give exactly two invented values, copied into O.
  Program p = ParseOrDie(
      "N(*, x) :- S(x). N(*, x) :- T(x). O(v, x) :- N(v, x). .output O");
  Instance in{Fact("S", {V(1)}), Fact("S", {V(2)}), Fact("T", {V(2)})};
  size_t derived = 0;
  Result<Instance> out = reference::EvaluateIlog(p, in, {}, &derived);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(derived, 4u);
  const TupleSet& n = out->TuplesOf(InternName("N"));
  const TupleSet& o = out->TuplesOf(InternName("O"));
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(std::vector<Tuple>(n.begin(), n.end()),
            std::vector<Tuple>(o.begin(), o.end()));
  std::set<Value> invented;
  std::set<Value> args;
  for (const Tuple& t : n) {
    EXPECT_TRUE(t[0].is_invented());
    invented.insert(t[0]);
    args.insert(t[1]);
  }
  EXPECT_EQ(invented.size(), 2u);
  EXPECT_EQ(args, (std::set<Value>{V(1), V(2)}));
  EXPECT_EQ(RenderUpToInvention(p, *out),
            "N(N(1), 1)\nN(N(2), 2)\nO(N(1), 1)\nO(N(2), 2)\n"
            "S(1)\nS(2)\nT(2)\n");

  // Inventing from invented values never stops: the fact cap answers.
  Program diverge = ParseOrDie("N(*, x) :- S(x). N(*, v) :- N(v, x).");
  reference::Options capped;
  capped.max_total_facts = 50;
  Result<Instance> r = reference::EvaluateIlog(diverge, in, capped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace calm::datalog
