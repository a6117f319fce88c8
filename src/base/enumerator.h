#ifndef CALM_BASE_ENUMERATOR_H_
#define CALM_BASE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "base/instance.h"
#include "base/schema.h"

namespace calm {

// Exhaustive enumeration helpers used by the bounded monotonicity /
// preservation checkers. All are exponential by nature; callers choose tiny
// domains (the paper's separations are all witnessed at <= 6 values).

// Every fact over `schema` whose values come from `domain`, in deterministic
// order. Size = sum over relations of |domain|^arity.
std::vector<Fact> AllFactsOver(const Schema& schema,
                               const std::vector<Value>& domain);

// Invokes `fn` for every instance over `schema` with values from `domain`
// and at most `max_facts` facts (including the empty instance). Stops early
// when fn returns false. Returns false iff stopped.
bool ForEachInstance(const Schema& schema, const std::vector<Value>& domain,
                     size_t max_facts,
                     const std::function<bool(const Instance&)>& fn);

// What a subset visitor asks of the enumeration next.
enum class SubsetStep {
  kStop,           // end the enumeration
  kSkipSupersets,  // do not extend the subset just visited
  kContinue,
};

// Invokes `fn` for every nonempty subset of `facts` of size at most
// `max_facts`, depth first: ascending index lists in lexicographic order,
// each list before its extensions. `fn` may prune the extensions of the
// subset it was given or stop the enumeration. Returns false iff stopped.
bool ForEachFactSubset(const std::vector<Fact>& facts, size_t max_facts,
                       const std::function<SubsetStep(const Instance&)>& fn);

// Materialized instance streams: the same spaces as the ForEach* callbacks
// above, but as indexed vectors in the identical deterministic order. The
// parallel checkers partition these indices across the thread pool and merge
// per-shard results back in index order, which is what keeps the parallel
// verdicts byte-identical to the single-threaded ones.
std::vector<Instance> AllInstances(const Schema& schema,
                                   const std::vector<Value>& domain,
                                   size_t max_facts);
std::vector<Instance> AllFactSubsets(const std::vector<Fact>& facts,
                                     size_t max_facts);

// The integer domain {0, 1, ..., n-1} as Values.
std::vector<Value> IntDomain(size_t n, uint64_t offset = 0);

// Orbit-representative streams for the genericity-aware reduced sweeps
// (base/canonical.h). Two instances over `domain` are isomorphic when an
// injective value map sends one fact set onto the other; a generic query
// treats the whole orbit alike, so sweeping one member per orbit suffices.
//
// The representative chosen for every orbit is its enumeration-order-least
// member in the ForEachInstance stream above. That choice is what keeps
// reduced-sweep counterexamples byte-identical to the full sweep: the first
// representative with a violation IS the first violating instance overall
// (violation existence is orbit-invariant), so the reduced sweep stops on
// the very same instance, no witness remapping required. Non-least subsets
// only extend to non-least subsets, so whole DFS subtrees prune.
//
// Invokes fn(instance, orbit_size) for every representative, where
// orbit_size counts the orbit's members inside the bounded space (empty
// instance included, orbit 1). Stops early when fn returns false; returns
// false iff stopped.
bool ForEachCanonicalInstance(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    const std::function<bool(const Instance&, uint64_t)>& fn);

// Materialized orbit representatives, in the deterministic order above —
// the same vector-stream shape AllInstances feeds to the thread-pool
// sharding. When `orbit_sizes` is non-null it receives one count per
// representative; the counts sum to |AllInstances(...)|.
std::vector<Instance> AllCanonicalInstances(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    std::vector<uint64_t>* orbit_sizes = nullptr);

// The permutations `value_maps` induce on the index space of `facts`: entry
// p satisfies facts[p[i]] == value_map(facts[i]). Maps that do not permute
// `facts` setwise are dropped (dropping only loses reduction, never
// soundness), as are the identity and duplicates. Used to build the
// stabilizer filter for the J-space below: for the monotonicity checkers
// the maps are Aut(I) x Sym(fresh values), under which every candidate
// fact list is closed.
std::vector<std::vector<uint32_t>> FactIndexPermutations(
    const std::vector<Fact>& facts,
    const std::vector<std::map<Value, Value>>& value_maps);

// ForEachFactSubset restricted to subsets that are lexicographically least
// in their orbit under `index_perms` (as ascending index lists — i.e. the
// enumeration-order-least orbit member, the same representative convention
// as ForEachCanonicalInstance). Sound for any set of violation-preserving
// permutations, group closure not required: the first violating subset is
// the least of its orbit, hence kept, as are all its DFS ancestors.
bool ForEachCanonicalFactSubset(
    const std::vector<Fact>& facts, size_t max_facts,
    const std::vector<std::vector<uint32_t>>& index_perms,
    const std::function<SubsetStep(const Instance&)>& fn);

}  // namespace calm

#endif  // CALM_BASE_ENUMERATOR_H_
