#ifndef PERFBENCH_TIMED_QUERY_H_
#define PERFBENCH_TIMED_QUERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/query.h"
#include "harness.h"

namespace perfbench {

// What a checker or a strategy transducer asked of the query it was handed.
// Updated from the parallel checker's pool threads, hence atomics.
class QueryCounters {
 public:
  std::atomic<uint64_t> evals{0};  // Eval, EvalUnion, EvalFacts
  std::atomic<uint64_t> eval_ns{0};
  std::atomic<uint64_t> union_evaluators{0};  // MakeUnionEvaluator
  std::atomic<uint64_t> union_evaluator_ns{0};
  std::atomic<uint64_t> pair_checks{0};  // UnionEvaluator::FirstRetracted
  std::atomic<uint64_t> pair_check_ns{0};

  // Wall time during which at least one call was in flight: the part of an
  // enclosing span that the engine covers. Summed call times exceed it when
  // the checker runs calls on two threads at once.
  uint64_t covered_ns() const;

  // One call into the query, timed from construction to destruction and
  // added to `count` / `ns`.
  class Call {
   public:
    Call(QueryCounters* counters, std::atomic<uint64_t>* count,
         std::atomic<uint64_t>* ns);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    QueryCounters* counters_;
    std::atomic<uint64_t>* ns_;
    Clock::time_point start_;
  };

 private:
  mutable std::mutex mu_;
  int in_flight_ = 0;             // guarded by mu_
  Clock::time_point busy_since_;  // guarded by mu_
  uint64_t covered_ns_ = 0;       // guarded by mu_
};

// A pass-through Query: every call goes to `inner` unchanged (EvalUnion and
// MakeUnionEvaluator included, so engines keep their own fast routes) and is
// counted and timed in `counters`. Nothing in the library inspects a Query's
// dynamic type, so handing this out instead of `inner` changes no route.
class TimedQuery final : public calm::Query {
 public:
  TimedQuery(const calm::Query& inner, QueryCounters* counters)
      : inner_(inner), counters_(counters) {}

  const calm::Schema& input_schema() const override {
    return inner_.input_schema();
  }
  const calm::Schema& output_schema() const override {
    return inner_.output_schema();
  }
  std::string name() const override { return inner_.name(); }

  calm::Result<calm::Instance> Eval(const calm::Instance& input) const override;
  calm::Result<calm::Instance> EvalUnion(
      const calm::Instance& a, const calm::Instance& b) const override;
  calm::Status EvalFacts(const calm::Instance& input,
                         std::vector<calm::Fact>* out) const override;
  std::unique_ptr<calm::UnionEvaluator> MakeUnionEvaluator(
      const calm::Instance& i) const override;

 private:
  const calm::Query& inner_;
  QueryCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_QUERY_H_
