#ifndef CALM_TESTS_REFERENCE_EVAL_H_
#define CALM_TESTS_REFERENCE_EVAL_H_

// A textbook evaluator for the paper's semantics, used as the independent
// oracle for the bytecode engine (tests/engine_diff_test.cc and friends).
// It shares only the parser's AST and base/ with the engine: no analysis,
// no stratifier, no compiled join order, no columnar store. Every fixpoint
// is naive iteration over an Instance, and positive body atoms are joined
// in written order by nested loops. Slow by design; keep inputs small.

#include <cstddef>
#include <memory>
#include <string>

#include "base/instance.h"
#include "base/query.h"
#include "base/status.h"
#include "datalog/ast.h"

namespace calm::reference {

struct Options {
  // Seed Adom with the active domain of the input's edb facts when the
  // program reads Adom without defining it (the paper's convention).
  bool populate_adom = true;
  // ResourceExhausted as soon as the working instance holds more facts.
  size_t max_total_facts = 10'000'000;
};

// Stratified semantics (Section 2). Returns the input restricted to sch(P),
// plus the seeded Adom facts, plus every derived fact. `derived`, when
// non-null, receives the number of facts beyond that seed.
Result<Instance> Evaluate(const datalog::Program& program,
                          const Instance& input, const Options& options = {},
                          size_t* derived = nullptr);

// As Evaluate, with ILOG¬ invention heads R(*, ā) (Section 5.2): the
// invented value is the Skolem term f_R(ā), one fresh value per (R, ā).
Result<Instance> EvaluateIlog(const datalog::Program& program,
                              const Instance& input,
                              const Options& options = {},
                              size_t* derived = nullptr);

// The Gamma operator: the least fixpoint of every rule at once, with every
// negated atom tested against `neg_reference` instead of the working set.
Result<Instance> EvaluateWithFixedNegation(const datalog::Program& program,
                                           const Instance& input,
                                           const Instance& neg_reference,
                                           const Options& options = {},
                                           size_t* derived = nullptr);

// The well-founded model by the alternating fixpoint: lo starts as the
// input restricted to sch(P), hi = Gamma(lo), lo' = Gamma(hi), until lo
// stops changing.
struct WellFoundedModel {
  Instance definitely;  // lfp of Gamma²
  Instance possibly;    // Gamma(definitely)
};
Result<WellFoundedModel> EvaluateWellFounded(const datalog::Program& program,
                                             const Instance& input,
                                             const Options& options = {});

// The program as a Query over edb(P) minus Adom, answering its output
// relations under the stratified semantics, or the definitely-true facts
// of the well-founded model when `well_founded`. No union evaluator of its
// own: checkers take the default from-scratch overlay route.
Result<std::unique_ptr<Query>> MakeQuery(const datalog::Program& program,
                                         std::string name,
                                         bool well_founded = false);

}  // namespace calm::reference

#endif  // CALM_TESTS_REFERENCE_EVAL_H_
