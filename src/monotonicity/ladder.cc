#include "monotonicity/ladder.h"

#include <vector>

#include "base/trace.h"

namespace calm::monotonicity {

size_t Ladder::FirstDistinctViolation() const {
  for (const LadderRow& row : rows) {
    if (!row.in_distinct) return row.i;
  }
  return 0;
}

size_t Ladder::FirstDisjointViolation() const {
  for (const LadderRow& row : rows) {
    if (!row.in_disjoint) return row.i;
  }
  return 0;
}

std::string Ladder::ToString() const {
  std::string out = "  i  M^i  M^i_distinct  M^i_disjoint\n";
  for (const LadderRow& row : rows) {
    out += "  " + std::to_string(row.i) + "  " + (row.in_m ? "yes" : "no ") +
           "  " + (row.in_distinct ? "yes" : "no ") + "           " +
           (row.in_disjoint ? "yes" : "no ") + "\n";
  }
  return out;
}

Result<Ladder> ComputeLadder(const Query& query, size_t max_i,
                             ExhaustiveOptions base) {
  // The ladder's 3 * max_i cells, row by row and M, Mdistinct, Mdisjoint
  // within a row, are the targets of one sweep (FindViolations): their J
  // spaces nest, so every I is visited once and each of its J checked once
  // for all the cells it belongs to. The sweep is parallel over I, and every
  // cell's verdict and witness equal its own FindViolation's; the first
  // failing cell (in cell order) decides the error.
  const MonotonicityClass kClasses[] = {MonotonicityClass::kMonotone,
                                        MonotonicityClass::kDomainDistinct,
                                        MonotonicityClass::kDomainDisjoint};
  std::vector<SweepTarget> cells;
  for (size_t i = 1; i <= max_i; ++i) {
    for (MonotonicityClass cls : kClasses) cells.push_back({cls, i});
  }

  TraceSpan span("ladder.compute");
  span.Arg("max_i", static_cast<int64_t>(max_i));
  span.Arg("cells", static_cast<int64_t>(cells.size()));
  uint64_t pairs = 0;
  CALM_ASSIGN_OR_RETURN(
      std::vector<std::optional<Counterexample>> witnesses,
      FindViolations(query, cells, base, span.active() ? &pairs : nullptr));
  if (span.active()) {
    // Bit c of `violated` is cell c (row c / 3 + 1, class c % 3).
    int64_t violated = 0;
    for (size_t c = 0; c < witnesses.size() && c < 63; ++c) {
      if (witnesses[c].has_value()) violated |= int64_t{1} << c;
    }
    span.Arg("violated", violated);
    span.Arg("pairs", static_cast<int64_t>(pairs));
  }

  Ladder ladder;
  for (size_t i = 1; i <= max_i; ++i) {
    LadderRow row;
    row.i = i;
    size_t cell = (i - 1) * 3;
    row.m_witness = std::move(witnesses[cell]);
    row.in_m = !row.m_witness.has_value();
    row.distinct_witness = std::move(witnesses[cell + 1]);
    row.in_distinct = !row.distinct_witness.has_value();
    row.disjoint_witness = std::move(witnesses[cell + 2]);
    row.in_disjoint = !row.disjoint_witness.has_value();
    ladder.rows.push_back(std::move(row));
  }
  return ladder;
}

}  // namespace calm::monotonicity
