#include "timed_query.h"

namespace perfbench {

using calm::Fact;
using calm::Instance;
using calm::Result;
using calm::Status;

uint64_t QueryCounters::covered_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return covered_ns_;
}

QueryCounters::Call::Call(QueryCounters* counters,
                          std::atomic<uint64_t>* count,
                          std::atomic<uint64_t>* ns)
    : counters_(counters), ns_(ns) {
  count->fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(counters_->mu_);
  start_ = Clock::now();
  if (counters_->in_flight_++ == 0) counters_->busy_since_ = start_;
}

QueryCounters::Call::~Call() {
  std::lock_guard<std::mutex> lock(counters_->mu_);
  Clock::time_point end = Clock::now();
  ns_->fetch_add(static_cast<uint64_t>(NanosBetween(start_, end)),
                 std::memory_order_relaxed);
  if (--counters_->in_flight_ == 0) {
    counters_->covered_ns_ +=
        static_cast<uint64_t>(NanosBetween(counters_->busy_since_, end));
  }
}

namespace {

class TimedUnionEvaluator final : public calm::UnionEvaluator {
 public:
  TimedUnionEvaluator(std::unique_ptr<calm::UnionEvaluator> inner,
                      QueryCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    QueryCounters::Call call(counters_, &counters_->pair_checks,
                             &counters_->pair_check_ns);
    return inner_->FirstRetracted(j, base_facts);
  }

 private:
  std::unique_ptr<calm::UnionEvaluator> inner_;
  QueryCounters* counters_;
};

}  // namespace

Result<Instance> TimedQuery::Eval(const Instance& input) const {
  QueryCounters::Call call(counters_, &counters_->evals, &counters_->eval_ns);
  return inner_.Eval(input);
}

Result<Instance> TimedQuery::EvalUnion(const Instance& a,
                                       const Instance& b) const {
  QueryCounters::Call call(counters_, &counters_->evals, &counters_->eval_ns);
  return inner_.EvalUnion(a, b);
}

Status TimedQuery::EvalFacts(const Instance& input,
                             std::vector<Fact>* out) const {
  QueryCounters::Call call(counters_, &counters_->evals, &counters_->eval_ns);
  return inner_.EvalFacts(input, out);
}

std::unique_ptr<calm::UnionEvaluator> TimedQuery::MakeUnionEvaluator(
    const Instance& i) const {
  QueryCounters::Call call(counters_, &counters_->union_evaluators,
                           &counters_->union_evaluator_ns);
  return std::make_unique<TimedUnionEvaluator>(inner_.MakeUnionEvaluator(i),
                                               counters_);
}

}  // namespace perfbench
