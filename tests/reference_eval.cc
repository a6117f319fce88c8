#include "reference_eval.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

namespace calm::reference {
namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

uint32_t Adom() {
  static const uint32_t kId = InternName("Adom");
  return kId;
}

// sch(P) with arities, and idb(P).
struct Signature {
  std::map<uint32_t, size_t> arity;
  std::set<uint32_t> idb;
  bool IsEdb(uint32_t rel) const {
    return arity.count(rel) > 0 && idb.count(rel) == 0;
  }
};

Result<Signature> Check(const Program& program, bool allow_invention) {
  Signature sig;
  auto note = [&](const Atom& a, bool head) -> Status {
    if (a.invents && !(head && allow_invention)) {
      return InvalidArgumentError("invention atom not allowed here");
    }
    const size_t n = a.args.size() + (a.invents ? 1 : 0);
    auto [it, fresh] = sig.arity.emplace(a.relation, n);
    if (n == 0 || (!fresh && it->second != n)) {
      return InvalidArgumentError("bad arity for " + NameOf(a.relation));
    }
    return Status::Ok();
  };
  for (const Rule& r : program.rules) {
    if (r.pos.empty()) return InvalidArgumentError("empty positive body");
    CALM_RETURN_IF_ERROR(note(r.head, true));
    for (const Atom& a : r.pos) CALM_RETURN_IF_ERROR(note(a, false));
    for (const Atom& a : r.neg) CALM_RETURN_IF_ERROR(note(a, false));
    const std::set<uint32_t> positive = r.PositiveVariables();
    for (uint32_t v : r.Variables()) {
      if (positive.count(v) == 0) return InvalidArgumentError("unsafe rule");
    }
    sig.idb.insert(r.head.relation);
  }
  return sig;
}

// Textbook stratification: raise each idb relation's level until every
// positive dependency goes level or up and every negative one strictly up.
// A level past |idb| can only come from a cycle through negation.
Result<std::vector<std::vector<const Rule*>>> Stratify(const Program& program,
                                                       const Signature& sig) {
  std::map<uint32_t, size_t> level;
  for (uint32_t r : sig.idb) level[r] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& r : program.rules) {
      size_t& head = level[r.head.relation];
      auto at_least = [&](const Atom& a, size_t step) {
        auto it = level.find(a.relation);
        if (it != level.end() && it->second + step > head) {
          head = it->second + step;
          changed = true;
        }
      };
      for (const Atom& a : r.pos) at_least(a, 0);
      for (const Atom& a : r.neg) at_least(a, 1);
      if (head > sig.idb.size()) {
        return FailedPreconditionError("program is not stratifiable");
      }
    }
  }
  std::vector<std::vector<const Rule*>> strata(sig.idb.size() + 1);
  for (const Rule& r : program.rules) {
    strata[level[r.head.relation]].push_back(&r);
  }
  return strata;
}

// The input restricted to sch(P), plus Adom(v) for every value of an edb
// fact when the program reads Adom as edb.
Instance Seed(const Signature& sig, const Instance& input,
              const Options& options) {
  const bool adom = options.populate_adom && sig.IsEdb(Adom());
  Instance db;
  input.ForEachFact([&](uint32_t rel, const Tuple& t) {
    auto it = sig.arity.find(rel);
    if (it == sig.arity.end() || it->second != t.size()) return;
    db.Insert(Fact(rel, t));
    if (adom && sig.IsEdb(rel)) {
      for (Value v : t) db.Insert(Fact(Adom(), Tuple{v}));
    }
  });
  return db;
}

class Evaluator {
 public:
  Evaluator(Instance seed, const Options& options)
      : db_(std::move(seed)), options_(options) {}

  // Naive iteration of `rules` to their least fixpoint over the working
  // set. Negated atoms are tested against `neg`, or the working set itself
  // when null (stratified: lower strata are already complete).
  Status Fixpoint(const std::vector<const Rule*>& rules, const Instance* neg) {
    for (bool grew = true; grew;) {
      grew = false;
      std::vector<Fact> derived;
      for (const Rule* r : rules) {
        std::map<uint32_t, Value> env;
        Match(*r, 0, neg != nullptr ? *neg : db_, &env, &derived);
      }
      for (const Fact& f : derived) {
        if (!db_.Insert(f)) continue;
        grew = true;
        if (db_.size() > options_.max_total_facts) {
          return ResourceExhaustedError("reference: max_total_facts exceeded");
        }
      }
    }
    return Status::Ok();
  }

  Instance& db() { return db_; }

 private:
  Value Resolve(const Term& t, const std::map<uint32_t, Value>& env) const {
    return t.is_var() ? env.at(t.var) : t.constant;
  }

  Tuple Instantiate(const Atom& a, const std::map<uint32_t, Value>& env) const {
    Tuple t;
    for (const Term& term : a.args) t.push_back(Resolve(term, env));
    return t;
  }

  // Extends `env` through positive atom k onward in written order; every
  // complete valuation that passes the inequalities and negations emits
  // its head fact.
  void Match(const Rule& r, size_t k, const Instance& neg,
             std::map<uint32_t, Value>* env, std::vector<Fact>* out) {
    if (k == r.pos.size()) {
      for (const auto& [left, right] : r.ineqs) {
        if (Resolve(left, *env) == Resolve(right, *env)) return;
      }
      for (const Atom& a : r.neg) {
        if (neg.Contains(Fact(a.relation, Instantiate(a, *env)))) return;
      }
      Tuple head = Instantiate(r.head, *env);
      if (r.head.invents) {
        auto [it, fresh] = skolem_.emplace(
            std::make_pair(r.head.relation, head), Value());
        if (fresh) it->second = Value::Invented(skolem_.size());
        head.prepend(it->second);
      }
      out->emplace_back(r.head.relation, std::move(head));
      return;
    }
    const Atom& atom = r.pos[k];
    for (const Tuple& t : db_.TuplesOf(atom.relation)) {
      std::map<uint32_t, Value> next = *env;
      bool ok = t.size() == atom.args.size();
      for (size_t i = 0; ok && i < atom.args.size(); ++i) {
        const Term& term = atom.args[i];
        if (!term.is_var()) {
          ok = term.constant == t[i];
        } else {
          ok = next.emplace(term.var, t[i]).first->second == t[i];
        }
      }
      if (ok) Match(r, k + 1, neg, &next, out);
    }
  }

  Instance db_;
  const Options& options_;
  std::map<std::pair<uint32_t, Tuple>, Value> skolem_;  // f_R(ā)
};

Result<Instance> Stratified(const Program& program, const Instance& input,
                            const Options& options, size_t* derived,
                            bool allow_invention) {
  CALM_ASSIGN_OR_RETURN(Signature sig, Check(program, allow_invention));
  CALM_ASSIGN_OR_RETURN(auto strata, Stratify(program, sig));
  Evaluator eval(Seed(sig, input, options), options);
  const size_t seeded = eval.db().size();
  for (const auto& rules : strata) {
    CALM_RETURN_IF_ERROR(eval.Fixpoint(rules, nullptr));
  }
  if (derived != nullptr) *derived = eval.db().size() - seeded;
  return std::move(eval.db());
}

}  // namespace

Result<Instance> Evaluate(const Program& program, const Instance& input,
                          const Options& options, size_t* derived) {
  return Stratified(program, input, options, derived, false);
}

Result<Instance> EvaluateIlog(const Program& program, const Instance& input,
                              const Options& options, size_t* derived) {
  return Stratified(program, input, options, derived, true);
}

Result<Instance> EvaluateWithFixedNegation(const Program& program,
                                           const Instance& input,
                                           const Instance& neg_reference,
                                           const Options& options,
                                           size_t* derived) {
  CALM_ASSIGN_OR_RETURN(Signature sig, Check(program, false));
  Evaluator eval(Seed(sig, input, options), options);
  const size_t seeded = eval.db().size();
  std::vector<const Rule*> rules;
  for (const Rule& r : program.rules) rules.push_back(&r);
  CALM_RETURN_IF_ERROR(eval.Fixpoint(rules, &neg_reference));
  if (derived != nullptr) *derived = eval.db().size() - seeded;
  return std::move(eval.db());
}

Result<WellFoundedModel> EvaluateWellFounded(const Program& program,
                                             const Instance& input,
                                             const Options& options) {
  CALM_ASSIGN_OR_RETURN(Signature sig, Check(program, false));
  Options no_adom = options;
  no_adom.populate_adom = false;
  WellFoundedModel model;
  // The input's facts are true in every model, so they are a sound first
  // underestimate (and give the same Gamma sequence as the engine, so both
  // meet max_total_facts at the same call).
  model.definitely = Seed(sig, input, no_adom);
  while (true) {
    CALM_ASSIGN_OR_RETURN(
        model.possibly,
        EvaluateWithFixedNegation(program, input, model.definitely, options));
    CALM_ASSIGN_OR_RETURN(
        Instance lo,
        EvaluateWithFixedNegation(program, input, model.possibly, options));
    if (lo == model.definitely) return model;
    model.definitely = std::move(lo);
  }
}

Result<std::unique_ptr<Query>> MakeQuery(const Program& program,
                                         std::string name, bool well_founded) {
  CALM_ASSIGN_OR_RETURN(Signature sig, Check(program, false));
  Schema in, out;
  for (const auto& [rel, arity] : sig.arity) {
    if (sig.IsEdb(rel) && rel != Adom()) {
      CALM_RETURN_IF_ERROR(
          in.AddRelation(RelationDecl(rel, static_cast<uint32_t>(arity))));
    }
  }
  for (uint32_t rel : program.output_relations) {
    if (sig.idb.count(rel) == 0) return InvalidArgumentError("bad output");
    CALM_RETURN_IF_ERROR(out.AddRelation(
        RelationDecl(rel, static_cast<uint32_t>(sig.arity.at(rel)))));
  }
  return std::unique_ptr<Query>(std::make_unique<NativeQuery>(
      std::move(name), in, out,
      NativeQuery::EvalFn([program, out, well_founded](
                              const Instance& input) -> Result<Instance> {
        if (well_founded) {
          CALM_ASSIGN_OR_RETURN(WellFoundedModel m,
                                EvaluateWellFounded(program, input));
          return m.definitely.Restrict(out);
        }
        CALM_ASSIGN_OR_RETURN(Instance all, Evaluate(program, input));
        return all.Restrict(out);
      })));
}

}  // namespace calm::reference
