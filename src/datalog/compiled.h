#ifndef CALM_DATALOG_COMPILED_H_
#define CALM_DATALOG_COMPILED_H_

#include <cstdint>
#include <map>
#include <vector>

#include "base/value.h"
#include "datalog/ast.h"

namespace calm::datalog {

// Rule compilation: variables renamed to dense slots; per positive atom the
// bound/free layout is decided at match time (bindings flow left to right).
// Compiled rules are immutable after compilation and shared read-only by
// concurrent evaluations of the same PreparedProgram.

struct CompiledAtom {
  uint32_t relation = 0;
  bool invents = false;  // head-only: leading Skolem invention position
  // Per argument: the variable slot, or -1 for a constant.
  std::vector<int> slots;
  std::vector<Value> constants;  // parallel; meaningful where slot == -1
};

struct CompiledIneq {
  int left_slot = -1;  // -1 => constant
  int right_slot = -1;
  Value left_const;
  Value right_const;
  size_t ready_after = 0;  // pos-atom index after which both sides are bound
};

struct CompiledRule {
  CompiledAtom head;
  std::vector<CompiledAtom> pos;
  std::vector<CompiledAtom> neg;
  std::vector<CompiledIneq> ineqs;
  size_t slot_count = 0;
};

class RuleCompiler {
 public:
  // Compiles one rule. Positive body atoms are greedily reordered:
  // repeatedly pick the remaining atom with the most bound argument
  // positions (constants or variables already bound by the chosen prefix);
  // ties broken by fewer new variables, then written order. This avoids
  // accidental cartesian products in carelessly written rules (2.1x on
  // BM_JoinOrderPessimalRule, EXPERIMENTS.md); results do not depend on it.
  CompiledRule Compile(const Rule& rule);

 private:
  static std::vector<const Atom*> OrderAtoms(const Rule& rule);
  int SlotOf(uint32_t var);
  CompiledAtom CompileAtom(const Atom& atom);

  std::map<uint32_t, int> slots_;
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_COMPILED_H_
