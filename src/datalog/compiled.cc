#include "datalog/compiled.h"

#include <climits>
#include <cstddef>
#include <set>

namespace calm::datalog {

CompiledRule RuleCompiler::Compile(const Rule& rule) {
  slots_.clear();
  CompiledRule out;
  std::vector<const Atom*> ordered = OrderAtoms(rule);
  out.pos.reserve(ordered.size());
  for (const Atom* a : ordered) out.pos.push_back(CompileAtom(*a));
  out.head = CompileAtom(rule.head);
  for (const Atom& a : rule.neg) out.neg.push_back(CompileAtom(a));

  // For each slot, the first pos atom index (1-based "after matching") at
  // which it is bound.
  std::vector<size_t> bound_after(slots_.size(), 0);
  std::vector<bool> seen(slots_.size(), false);
  for (size_t i = 0; i < out.pos.size(); ++i) {
    for (int s : out.pos[i].slots) {
      if (s >= 0 && !seen[s]) {
        seen[s] = true;
        bound_after[s] = i + 1;
      }
    }
  }
  for (const auto& [l, r] : rule.ineqs) {
    CompiledIneq ci;
    size_t ready = 0;
    if (l.is_var()) {
      ci.left_slot = SlotOf(l.var);
      ready = std::max(ready, bound_after[ci.left_slot]);
    } else {
      ci.left_const = l.constant;
    }
    if (r.is_var()) {
      ci.right_slot = SlotOf(r.var);
      ready = std::max(ready, bound_after[ci.right_slot]);
    } else {
      ci.right_const = r.constant;
    }
    ci.ready_after = ready;
    out.ineqs.push_back(ci);
  }
  out.slot_count = slots_.size();
  return out;
}

std::vector<const Atom*> RuleCompiler::OrderAtoms(const Rule& rule) {
  std::vector<const Atom*> out;
  out.reserve(rule.pos.size());
  std::vector<const Atom*> remaining;
  for (const Atom& a : rule.pos) remaining.push_back(&a);
  std::set<uint32_t> bound;
  while (!remaining.empty()) {
    size_t best = 0;
    int best_bound = -1;
    int best_new = INT_MAX;
    for (size_t i = 0; i < remaining.size(); ++i) {
      int bound_positions = 0;
      std::set<uint32_t> fresh;
      for (const Term& t : remaining[i]->args) {
        if (!t.is_var() || bound.count(t.var) > 0) {
          ++bound_positions;
        } else {
          fresh.insert(t.var);
        }
      }
      int new_vars = static_cast<int>(fresh.size());
      if (bound_positions > best_bound ||
          (bound_positions == best_bound && new_vars < best_new)) {
        best = i;
        best_bound = bound_positions;
        best_new = new_vars;
      }
    }
    const Atom* chosen = remaining[best];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
    for (const Term& t : chosen->args) {
      if (t.is_var()) bound.insert(t.var);
    }
    out.push_back(chosen);
  }
  return out;
}

int RuleCompiler::SlotOf(uint32_t var) {
  auto [it, inserted] = slots_.emplace(var, static_cast<int>(slots_.size()));
  return it->second;
}

CompiledAtom RuleCompiler::CompileAtom(const Atom& atom) {
  CompiledAtom out;
  out.relation = atom.relation;
  out.invents = atom.invents;
  out.slots.reserve(atom.args.size());
  out.constants.resize(atom.args.size());
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    if (t.is_var()) {
      out.slots.push_back(SlotOf(t.var));
    } else {
      out.slots.push_back(-1);
      out.constants[i] = t.constant;
    }
  }
  return out;
}

}  // namespace calm::datalog
