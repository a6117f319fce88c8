#include "monotonicity/checker.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/canonical.h"
#include "base/enumerator.h"
#include "base/metrics.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "monotonicity/sweep_checkpoint.h"
#include "workload/instance_gen.h"

namespace calm::monotonicity {

const char* MonotonicityClassName(MonotonicityClass cls) {
  switch (cls) {
    case MonotonicityClass::kMonotone:
      return "M";
    case MonotonicityClass::kDomainDistinct:
      return "Mdistinct";
    case MonotonicityClass::kDomainDisjoint:
      return "Mdisjoint";
  }
  return "?";
}

std::string Counterexample::ToString() const {
  return "I = " + i.ToString() + ", J = " + j.ToString() +
         ", retracted output fact: " + FactToString(retracted);
}

Result<std::optional<Counterexample>> PairChecker::Check(const Instance& j) {
  if (!base_ready_) {
    base_ready_ = true;
    base_status_ = query_.EvalFacts(i_, &base_facts_);
    if (base_status_.ok()) union_eval_ = query_.MakeUnionEvaluator(i_);
  }
  if (!base_status_.ok()) return base_status_;

  // The union evaluator owns all per-pair state about i — a materialized
  // fixpoint that j continues as an insertion delta (DatalogQuery), a
  // precomputed reachability matrix (the closure queries), or an overlay on
  // a persistent copy of i (the generic default). Every route reports the
  // first base fact missing from Q(i u j) in Q(i)'s iteration order, so the
  // counterexample is identical to evaluating the pair in isolation.
  CALM_ASSIGN_OR_RETURN(std::optional<Fact> missing,
                        union_eval_->FirstRetracted(j, base_facts_));
  if (missing.has_value()) {
    return std::optional<Counterexample>(
        Counterexample{i_, j, *std::move(missing)});
  }
  return std::optional<Counterexample>();
}

Result<std::optional<Counterexample>> CheckPair(const Query& query,
                                                const Instance& i,
                                                const Instance& j) {
  return PairChecker(query, i).Check(j);
}

namespace {

// Candidate facts for J given I, per class:
//  * kMonotone:       every fact over adom(I) + fresh values
//  * kDomainDistinct: facts containing at least one fresh value
//  * kDomainDisjoint: facts over fresh values only
std::vector<Fact> CandidateJFacts(const Schema& schema, const Instance& i,
                                  const std::vector<Value>& fresh,
                                  MonotonicityClass cls) {
  std::set<Value> adom_i = i.ActiveDomain();
  std::vector<Value> mixed(adom_i.begin(), adom_i.end());
  mixed.insert(mixed.end(), fresh.begin(), fresh.end());

  std::vector<Fact> all;
  switch (cls) {
    case MonotonicityClass::kMonotone:
      all = AllFactsOver(schema, mixed);
      break;
    case MonotonicityClass::kDomainDistinct: {
      for (Fact& f : AllFactsOver(schema, mixed)) {
        if (FactDomainDistinctFrom(f, adom_i)) all.push_back(std::move(f));
      }
      break;
    }
    case MonotonicityClass::kDomainDisjoint:
      all = AllFactsOver(schema, fresh);
      break;
  }
  // Drop facts already in I (their addition is a no-op).
  std::vector<Fact> out;
  for (Fact& f : all) {
    if (!i.Contains(f)) out.push_back(std::move(f));
  }
  return out;
}

// The first stopping event (error or counterexample) of one sweep target at
// one candidate I, in that target's J enumeration order.
struct InstanceOutcome {
  Status error;  // ok() when `cex` carries the event
  std::optional<Counterexample> cex;
};

// Whether the symmetry reduction applies: forced modes answer directly,
// kAuto runs the sampling genericity probe over a small slice of the sweep
// space (max_facts capped at 2 keeps the probe around a percent of a full
// sweep). Any probe failure — genericity violation or evaluation error —
// means the full sweep runs, which is always sound.
bool ResolveSymmetry(const Query& query, SymmetryMode mode, size_t domain_size,
                     size_t max_facts) {
  switch (mode) {
    case SymmetryMode::kOff:
      return false;
    case SymmetryMode::kForceOn:
      return true;
    case SymmetryMode::kAuto:
      return ProbeGenericity(query, domain_size,
                             std::min<size_t>(max_facts, 2)).ok();
  }
  return false;
}

// The violation-preserving value maps for I's J-space: Aut(I) composed with
// every permutation of the fresh values. Both parts fix I setwise (the
// automorphisms by definition, the fresh part vacuously), so for a generic
// query g(J) violates at I exactly when J does, and every candidate fact
// list is closed under g. Capped defensively — dropping maps only loses
// reduction, never soundness.
std::vector<std::map<Value, Value>> StabilizerValueMaps(
    const Instance& i, const std::vector<Value>& fresh) {
  constexpr size_t kMaxMaps = 512;
  std::vector<std::map<Value, Value>> auts = InstanceAutomorphisms(i);
  std::vector<std::vector<Value>> fresh_perms;
  std::vector<Value> p = fresh;
  do {
    fresh_perms.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));

  std::vector<std::map<Value, Value>> out;
  out.reserve(std::min(kMaxMaps, auts.size() * fresh_perms.size()));
  for (const std::map<Value, Value>& aut : auts) {
    for (const std::vector<Value>& fp : fresh_perms) {
      if (out.size() >= kMaxMaps) return out;
      std::map<Value, Value> m = aut;
      for (size_t t = 0; t < fresh.size(); ++t) m[fresh[t]] = fp[t];
      out.push_back(std::move(m));
    }
  }
  return out;
}

// --- Reduced-sweep plan cache -------------------------------------------
//
// Everything the reduced sweep enumerates — the canonical I representatives,
// each I's J-candidate facts, the stabilizer index permutations, and the
// canonical J-subset stream — depends only on (schema, bounds, class), never
// on the query. Ladder runs and repeated checks re-derive all of it, and the
// derivation (orbit canonicalization, automorphism search, subset DFS) costs
// more than the checks themselves at paper-scale bounds. So the whole
// enumeration is materialized once per key into a plan: per representative
// I, the J stream in enumeration order. Checking walks the plan through a
// PairChecker in the exact order the streaming sweep would have visited, so
// verdicts, counterexamples, and stop points are byte-identical — only the
// enumeration work is amortized, never the checks.
//
// The cache sits behind the same genericity gate as the reduction itself
// (plans are only built when `reduce` holds) and is capped by pair count —
// oversized spaces fall back to the streaming enumeration, which is always
// sound.
struct SweepPlanEntry {
  Instance i;
  std::vector<Instance> js;  // J subsets, enumeration order
};

struct SweepPlan {
  std::vector<SweepPlanEntry> entries;
};

// Σ_{k<=max_facts} C(n, k), saturating at `cap` — an upper bound on the
// J-subset stream length (the canonical stream only drops members).
uint64_t SubsetCountBound(uint64_t n, uint64_t max_facts, uint64_t cap) {
  uint64_t total = 1;  // the empty subset
  uint64_t choose = 1;
  for (uint64_t k = 1; k <= max_facts && k <= n; ++k) {
    choose = choose * (n - k + 1) / k;
    total += choose;
    if (total >= cap) return cap;
  }
  return total;
}

std::shared_ptr<const SweepPlan> GetSweepPlan(const Schema& schema,
                                              MonotonicityClass cls,
                                              size_t max_facts_j,
                                              const ExhaustiveOptions& options,
                                              const std::vector<Value>& domain,
                                              const std::vector<Value>& fresh) {
  constexpr uint64_t kMaxPlanPairs = 1u << 17;
  std::string key = schema.ToString();
  for (size_t v : {options.domain_size, options.fresh_values,
                   options.max_facts_i, max_facts_j,
                   static_cast<size_t>(cls)}) {
    key += '|';
    key += std::to_string(v);
  }

  static std::mutex mu;
  static auto* cache =
      new std::unordered_map<std::string, std::shared_ptr<const SweepPlan>>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
  }

  // Build outside the lock: concurrent misses may build duplicate plans, but
  // the plans are identical and the first insert wins.
  auto plan = std::make_shared<SweepPlan>();
  uint64_t pairs = 0;
  for (Instance& i : AllCanonicalInstances(schema, domain,
                                           options.max_facts_i)) {
    SweepPlanEntry entry;
    entry.i = std::move(i);
    std::vector<Fact> candidates =
        CandidateJFacts(schema, entry.i, fresh, cls);
    pairs += SubsetCountBound(candidates.size(), max_facts_j, kMaxPlanPairs);
    if (pairs >= kMaxPlanPairs) return nullptr;  // too big to materialize
    ForEachCanonicalFactSubset(
        candidates, max_facts_j,
        FactIndexPermutations(candidates, StabilizerValueMaps(entry.i, fresh)),
        [&](const Instance& j) {
          entry.js.push_back(j);
          return SubsetStep::kContinue;
        });
    plan->entries.push_back(std::move(entry));
  }

  std::lock_guard<std::mutex> lock(mu);
  return cache->emplace(key, std::move(plan)).first->second;
}

// Which targets' candidate lists (CandidateJFacts) a J from the M stream
// draws on, relative to adom(I): every fact carrying a value outside adom(I)
// makes it domain distinct, every fact made only of such values domain
// disjoint (never without fresh values: AllFactsOver yields no facts over
// no values). Supersets keep neither property J lacks.
struct JKind {
  bool distinct = true;
  bool disjoint = true;
};

JKind KindOf(const Instance& j, const std::set<Value>& adom_i,
             bool have_fresh) {
  JKind kind{true, have_fresh};
  j.ForEachFact([&](uint32_t, const Tuple& t) {
    size_t new_values = 0;
    for (Value v : t) new_values += adom_i.count(v) == 0 ? 1 : 0;
    kind.distinct = kind.distinct && new_values > 0;
    kind.disjoint = kind.disjoint && new_values == t.size();
  });
  return kind;
}

bool KindFits(MonotonicityClass cls, JKind kind) {
  switch (cls) {
    case MonotonicityClass::kMonotone:
      return true;
    case MonotonicityClass::kDomainDistinct:
      return kind.distinct;
    case MonotonicityClass::kDomainDisjoint:
      return kind.disjoint;
  }
  return false;
}

}  // namespace

Result<std::vector<std::optional<Counterexample>>> FindViolations(
    const Query& query, const std::vector<SweepTarget>& targets,
    const ExhaustiveOptions& options, uint64_t* pairs) {
  const size_t n = targets.size();
  if (n != 1 && !options.checkpoint_dir.empty()) {
    return InvalidArgumentError(
        "checkpoint_dir is only supported for a single-target sweep");
  }
  if (n == 0) return std::vector<std::optional<Counterexample>>();
  const Schema& schema = query.input_schema();
  std::vector<Value> domain = IntDomain(options.domain_size);
  std::vector<Value> fresh = IntDomain(options.fresh_values, 1000);

  // The one J stream every target is a subsequence of: the shared class if
  // all targets have one (M otherwise — nullary facts make the disjoint
  // candidates no subset of the distinct ones), at the largest bound.
  // Subset DFS order and the lex-least orbit filter are both intrinsic to J
  // (a finer candidate list embeds order-preservingly into a coarser one,
  // and the stabilizer maps preserve every class), so each target sees its
  // own J sequence in its own order and stops where it alone would.
  bool mixed_classes = false;
  size_t stream_max_j = 0;
  for (const SweepTarget& t : targets) {
    mixed_classes = mixed_classes || t.cls != targets[0].cls;
    stream_max_j = std::max(stream_max_j, t.max_facts_j);
  }
  const MonotonicityClass stream_cls =
      mixed_classes ? MonotonicityClass::kMonotone : targets[0].cls;

  // Materialize the candidate-I space (small by construction: the paper's
  // separations live at <= 6 values) and partition its indices across the
  // pool. Each target keeps its first stopping event at the least index,
  // which is exactly what the single-threaded nested loop returns — so
  // verdicts and counterexamples are deterministic and
  // thread-count-independent. `first_stop[t]` is a monotonically decreasing
  // cursor used only to prune work at indices that can no longer win.
  // With the symmetry reduction active, the I stream keeps only the
  // enumeration-least member of each isomorphism orbit; because violation
  // existence is orbit-invariant for a generic query, the first violating
  // representative is the first violating instance of the full stream, so
  // the reported counterexample is byte-identical. The same argument filters
  // each I's J-subset space under the stabilizer maps.
  bool reduce = ResolveSymmetry(query, options.symmetry, options.domain_size,
                                options.max_facts_i);
  std::shared_ptr<const SweepPlan> plan =
      reduce ? GetSweepPlan(schema, stream_cls, stream_max_j, options, domain,
                            fresh)
             : nullptr;
  std::vector<Instance> is =
      plan != nullptr ? std::vector<Instance>()
      : reduce ? AllCanonicalInstances(schema, domain, options.max_facts_i)
               : AllInstances(schema, domain, options.max_facts_i);
  const size_t space = plan != nullptr ? plan->entries.size() : is.size();
  std::vector<std::atomic<size_t>> first_stop(n);
  for (std::atomic<size_t>& f : first_stop) f.store(space);
  // The stop at each cursor; cursors only move under `winners_mu`, together
  // with their stop (stops are rare).
  std::mutex winners_mu;
  std::vector<InstanceOutcome> winners(n);
  auto record_winner = [&](size_t t, size_t idx, InstanceOutcome outcome) {
    std::lock_guard<std::mutex> lock(winners_mu);
    if (idx >= first_stop[t].load(std::memory_order_relaxed)) return;
    winners[t] = std::move(outcome);
    first_stop[t].store(idx, std::memory_order_relaxed);
  };

  // Durable sweep journal (sweep_checkpoint.h), single-target only. The file
  // identity encodes the query, kind, class, and every bound, and its Begin
  // record pins `space`, so replayed progress always belongs to this exact
  // sweep.
  std::unique_ptr<SweepCheckpoint> ckpt;
  if (!options.checkpoint_dir.empty()) {
    CALM_ASSIGN_OR_RETURN(
        ckpt, SweepCheckpoint::Open(
                  options.checkpoint_dir,
                  SweepFileId(query.name(), "fv",
                              MonotonicityClassName(stream_cls),
                              options.domain_size, options.fresh_values,
                              options.max_facts_i, stream_max_j),
                  space));
    if (ckpt->complete()) {
      // A prior run finished this sweep: its recorded winner is the verdict.
      const uint64_t winner = ckpt->winner();
      if (winner >= space) {
        return std::vector<std::optional<Counterexample>>(1);
      }
      const SweepStop* stop = ckpt->StopAt(winner);
      if (stop == nullptr) {
        return InternalError("sweep checkpoint: complete without a stop at " +
                             std::to_string(winner));
      }
      if (!stop->has_witness) return stop->error;
      std::vector<std::optional<Counterexample>> out(1);
      out[0] = Counterexample{stop->i, stop->j, stop->fact};
      return out;
    }
    // Seed this run with the least recorded stop: it prunes everything
    // behind it, exactly as if this run had found it itself.
    if (!ckpt->stops().empty()) {
      const auto& [idx, stop] = *ckpt->stops().begin();
      if (idx < space) {
        InstanceOutcome seeded;
        if (stop.has_witness) {
          seeded.cex = Counterexample{stop.i, stop.j, stop.fact};
        } else {
          seeded.error = stop.error;
        }
        record_winner(0, idx, std::move(seeded));
      }
    }
  }
  std::atomic<bool> cancelled{false};
  auto cancel_requested = [&]() {
    if (options.cancel == nullptr ||
        !options.cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    cancelled.store(true, std::memory_order_relaxed);
    return true;
  };

  TraceSpan span("checker.find_violation");
  span.Arg("class", static_cast<int64_t>(stream_cls));
  span.Arg("targets", static_cast<int64_t>(n));
  span.Arg("instances", static_cast<int64_t>(space));
  span.Arg("reduced", reduce ? 1 : 0);
  const bool metrics_on = MetricsEnabled();
  // Pair totals feed the span, the caller and the progress counters; they
  // are only tallied when somebody is listening (the per-pair add is a
  // sharded relaxed atomic, the per-I flush below is the normal path).
  const bool observing = metrics_on || span.active() || pairs != nullptr;
  std::atomic<uint64_t> pairs_total{0};
  Counter* instances_done = nullptr;
  Counter* pairs_done = nullptr;
  Counter* skipped_done = nullptr;
  if (metrics_on) {
    MetricRegistry& registry = MetricRegistry::Global();
    const char* label = MonotonicityClassName(stream_cls);
    instances_done = &registry.GetCounter("calm.checker.instances_examined",
                                          {{"class", label}});
    pairs_done =
        &registry.GetCounter("calm.checker.pairs_checked", {{"class", label}});
    if (ckpt != nullptr) {
      skipped_done = &registry.GetCounter("calm.durable.sweep_skipped");
    }
  }

  ParallelFor(space, options.threads, [&](size_t idx) {
    if (cancel_requested()) return;
    if (ckpt != nullptr && ckpt->IsRecorded(idx)) {
      // A prior run durably finished this candidate; its outcome (if the
      // least stop) was seeded above.
      if (skipped_done != nullptr) skipped_done->Increment();
      return;
    }
    // The targets this I can still decide: a stop at a lower index wins.
    std::vector<size_t> open;
    for (size_t t = 0; t < n; ++t) {
      if (first_stop[t].load(std::memory_order_relaxed) >= idx) {
        open.push_back(t);
      }
    }
    if (open.empty()) return;
    std::vector<std::pair<size_t, InstanceOutcome>> stops;
    uint64_t pairs_here = 0;
    // A candidate pruned mid-enumeration (a lower index already stopped, or
    // a cancel arrived) was NOT fully examined, so it must not be journaled
    // as Done — the Done record means "every J was checked".
    bool pruned = false;
    const Instance& i = plan != nullptr ? plan->entries[idx].i : is[idx];
    const std::set<Value> adom_i =
        mixed_classes ? i.ActiveDomain() : std::set<Value>();
    // One checker per outer I: Q(i) is computed lazily once (an I with no
    // pairs is never evaluated) and reused, with the union evaluator's
    // per-I state, across the whole J stream. Each J is checked at most
    // once, and its outcome lands in every open target that contains it.
    PairChecker checker(query, i);
    auto visit = [&](const Instance& j) {
      if (cancel_requested()) {
        pruned = true;
        return SubsetStep::kStop;
      }
      // Targets a lower index decided leave the list, and each target that
      // J fits is noted: whether it contains J, and whether it has room for
      // J's supersets. Every stream J fits the stream class; only mixed
      // targets need J's own kind.
      const JKind kind =
          mixed_classes ? KindOf(j, adom_i, !fresh.empty()) : JKind{};
      const size_t size = j.size();
      bool check = false;
      bool extend = false;
      for (size_t k = 0; k < open.size();) {
        const SweepTarget& target = targets[open[k]];
        if (first_stop[open[k]].load(std::memory_order_relaxed) < idx) {
          open[k] = open.back();  // the order of `open` is immaterial
          open.pop_back();
          pruned = true;
          continue;
        }
        if (KindFits(target.cls, kind)) {
          check = check || size <= target.max_facts_j;
          extend = extend || size < target.max_facts_j;
        }
        ++k;
      }
      if (open.empty()) return SubsetStep::kStop;
      const SubsetStep next =
          extend ? SubsetStep::kContinue : SubsetStep::kSkipSupersets;
      if (!check) return next;
      ++pairs_here;
      Result<std::optional<Counterexample>> r = checker.Check(j);
      if (r.ok() && !r->has_value()) return next;
      std::erase_if(open, [&](size_t t) {
        if (size > targets[t].max_facts_j || !KindFits(targets[t].cls, kind)) {
          return false;
        }
        InstanceOutcome outcome;
        if (r.ok()) {
          outcome.cex = **r;
        } else {
          outcome.error = r.status();
        }
        stops.emplace_back(t, std::move(outcome));
        return true;
      });
      return open.empty() ? SubsetStep::kStop : next;
    };
    if (plan != nullptr) {
      // Plan path: walk the precomputed J stream (a flat list, so nothing to
      // prune); checks, order, and stop points match the streaming path.
      for (const Instance& j : plan->entries[idx].js) {
        if (visit(j) == SubsetStep::kStop) break;
      }
    } else {
      std::vector<Fact> candidates =
          CandidateJFacts(schema, i, fresh, stream_cls);
      if (reduce) {
        ForEachCanonicalFactSubset(
            candidates, stream_max_j,
            FactIndexPermutations(candidates, StabilizerValueMaps(i, fresh)),
            visit);
      } else {
        ForEachFactSubset(candidates, stream_max_j, visit);
      }
    }
    if (observing) {
      pairs_total.fetch_add(pairs_here, std::memory_order_relaxed);
      if (metrics_on) {
        instances_done->Increment();
        pairs_done->Increment(pairs_here);
      }
    }
    if (ckpt != nullptr) {
      if (!stops.empty()) {
        // Durable before visible: the stop is journaled before it can prune
        // (and thus silence) higher indices in this run.
        const InstanceOutcome& outcome = stops.front().second;
        SweepStop stop;
        if (outcome.cex.has_value()) {
          stop.has_witness = true;
          stop.i = outcome.cex->i;
          stop.j = outcome.cex->j;
          stop.fact = outcome.cex->retracted;
        } else {
          stop.error = outcome.error;
        }
        ckpt->RecordStop(idx, stop);
      } else if (!pruned) {
        ckpt->RecordDone(idx);
      }
    }
    for (auto& [t, outcome] : stops) record_winner(t, idx, std::move(outcome));
  });

  if (pairs != nullptr) *pairs = pairs_total.load(std::memory_order_relaxed);
  if (span.active()) {
    span.Arg("pairs", static_cast<int64_t>(
                          pairs_total.load(std::memory_order_relaxed)));
  }

  if (cancelled.load(std::memory_order_relaxed)) {
    // Everything that finished before the cancel is already journaled; a
    // rerun with the same checkpoint_dir picks up from there.
    if (ckpt != nullptr) CALM_RETURN_IF_ERROR(ckpt->io_status());
    return DeadlineExceededError("sweep cancelled");
  }

  if (ckpt != nullptr) {
    // The sweep ran to the end: certify the checkpoint (the winner is final)
    // — but only if every append landed; a WAL with a missing Done record
    // must not claim completeness.
    CALM_RETURN_IF_ERROR(ckpt->io_status());
    ckpt->RecordComplete(first_stop[0].load(std::memory_order_relaxed));
    CALM_RETURN_IF_ERROR(ckpt->io_status());
  }
  // The first target (in target order) whose first stop is an error fails
  // the whole call, as a loop of single-target calls would.
  std::vector<std::optional<Counterexample>> out(n);
  for (size_t t = 0; t < n; ++t) {
    if (!winners[t].error.ok()) return winners[t].error;
    out[t] = std::move(winners[t].cex);
  }
  return out;
}

Result<std::optional<Counterexample>> FindViolation(
    const Query& query, MonotonicityClass cls,
    const ExhaustiveOptions& options) {
  CALM_ASSIGN_OR_RETURN(
      std::vector<std::optional<Counterexample>> found,
      FindViolations(query, {SweepTarget{cls, options.max_facts_j}}, options));
  return std::move(found[0]);
}

Result<std::optional<Counterexample>> FindViolationRandom(
    const Query& query, MonotonicityClass cls, const RandomOptions& options) {
  const Schema& schema = query.input_schema();
  for (size_t trial = 0; trial < options.trials; ++trial) {
    uint64_t seed = options.seed * 1000003 + trial;
    Instance i =
        workload::RandomInstance(schema, options.facts_i, options.domain_size,
                                 seed);
    Instance j;
    switch (cls) {
      case MonotonicityClass::kMonotone:
        // Arbitrary J: another random instance over a slightly larger
        // domain, so it overlaps adom(I) but also brings new values.
        j = workload::RandomInstance(schema, options.facts_j,
                                     options.domain_size + options.fresh_values,
                                     seed + 1);
        break;
      case MonotonicityClass::kDomainDistinct:
        j = workload::RandomDomainDistinctExtension(
            schema, i, options.facts_j, options.fresh_values, seed + 1);
        break;
      case MonotonicityClass::kDomainDisjoint:
        j = workload::RandomDomainDisjointExtension(
            schema, i, options.facts_j, options.fresh_values, seed + 1);
        break;
    }
    Result<std::optional<Counterexample>> r = CheckPair(query, i, j);
    if (!r.ok()) return r.status();
    if (r->has_value()) return r;
  }
  return std::optional<Counterexample>();
}

}  // namespace calm::monotonicity
