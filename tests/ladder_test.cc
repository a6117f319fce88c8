#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "monotonicity/ladder.h"
#include "queries/graph_queries.h"
#include "workload/fuzzer.h"

namespace calm::monotonicity {
namespace {

ExhaustiveOptions SmallSpace() {
  ExhaustiveOptions o;
  o.domain_size = 3;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  return o;
}

TEST(LadderTest, MonotoneQueryIsAllYes) {
  auto tc = queries::MakeTransitiveClosure();
  Result<Ladder> ladder = ComputeLadder(*tc, 3, SmallSpace());
  ASSERT_TRUE(ladder.ok());
  for (const LadderRow& row : ladder->rows) {
    EXPECT_TRUE(row.in_m && row.in_distinct && row.in_disjoint) << row.i;
  }
  EXPECT_EQ(ladder->FirstDistinctViolation(), 0u);
  EXPECT_EQ(ladder->FirstDisjointViolation(), 0u);
}

TEST(LadderTest, Clique3RungMatchesTheorem313) {
  // Q^3_clique = Q^{i+2} with i = 1: in M^1_distinct, out at M^2_distinct.
  auto q = queries::MakeCliqueQuery(3);
  ExhaustiveOptions o = SmallSpace();
  o.fresh_values = 1;
  Result<Ladder> ladder = ComputeLadder(*q, 3, o);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder->FirstDistinctViolation(), 2u);
  EXPECT_TRUE(ladder->rows[0].in_distinct);
  EXPECT_FALSE(ladder->rows[1].in_distinct);
  // The witness at the violating rung is recorded.
  ASSERT_TRUE(ladder->rows[1].distinct_witness.has_value());
  EXPECT_FALSE(ladder->rows[1].distinct_witness->ToString().empty());
}

TEST(LadderTest, Star2RungMatchesTheorem314) {
  // Q^2_star = Q^{i+1} with i = 1: in M^1_disjoint, out at M^2_disjoint,
  // and out of M^1_distinct already.
  auto q = queries::MakeStarQuery(2);
  ExhaustiveOptions o = SmallSpace();
  o.fresh_values = 3;
  Result<Ladder> ladder = ComputeLadder(*q, 2, o);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder->FirstDisjointViolation(), 2u);
  EXPECT_EQ(ladder->FirstDistinctViolation(), 1u);
}

TEST(LadderTest, RowsAreInternallyConsistent) {
  // in M^i implies in M^i_distinct implies in M^i_disjoint, per row.
  auto q = queries::MakeComplementTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 2;
  o.max_facts_i = 2;
  Result<Ladder> ladder = ComputeLadder(*q, 3, o);
  ASSERT_TRUE(ladder.ok());
  for (const LadderRow& row : ladder->rows) {
    if (row.in_m) {
      EXPECT_TRUE(row.in_distinct);
    }
    if (row.in_distinct) {
      EXPECT_TRUE(row.in_disjoint);
    }
  }
}

TEST(LadderTest, ToStringRendersTable) {
  auto tc = queries::MakeTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 2;
  o.max_facts_i = 2;
  Result<Ladder> ladder = ComputeLadder(*tc, 2, o);
  ASSERT_TRUE(ladder.ok());
  std::string table = ladder->ToString();
  EXPECT_NE(table.find("M^i_distinct"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);
}

// --- Oracle: the ladder as 3 * max_i independent FindViolation calls -------
//
// ComputeLadder decides every cell from one shared sweep; its definition is
// one single-target FindViolation per cell, with the genericity probe
// resolved once for the table, and the first failing cell (in cell order)
// deciding the error. Cells render to their exact verdict and witness bytes.

std::string RenderCell(const std::optional<Counterexample>& cex) {
  return cex.has_value() ? cex->ToString() : "none";
}

Result<std::vector<std::string>> LadderByCells(const Query& query,
                                               size_t max_i,
                                               ExhaustiveOptions base) {
  if (base.symmetry == SymmetryMode::kAuto) {
    base.symmetry = ProbeGenericity(query, base.domain_size,
                                    std::min<size_t>(base.max_facts_i, 2))
                            .ok()
                        ? SymmetryMode::kForceOn
                        : SymmetryMode::kOff;
  }
  const MonotonicityClass kClasses[] = {MonotonicityClass::kMonotone,
                                        MonotonicityClass::kDomainDistinct,
                                        MonotonicityClass::kDomainDisjoint};
  std::vector<std::string> cells;
  for (size_t i = 1; i <= max_i; ++i) {
    for (MonotonicityClass cls : kClasses) {
      ExhaustiveOptions o = base;
      o.max_facts_j = i;
      CALM_ASSIGN_OR_RETURN(std::optional<Counterexample> cex,
                            FindViolation(query, cls, o));
      cells.push_back(RenderCell(cex));
    }
  }
  return cells;
}

Result<std::vector<std::string>> LadderCells(const Query& query, size_t max_i,
                                             const ExhaustiveOptions& base) {
  CALM_ASSIGN_OR_RETURN(Ladder ladder, ComputeLadder(query, max_i, base));
  std::vector<std::string> cells;
  for (const LadderRow& row : ladder.rows) {
    // The verdict flags must agree with the witnesses they summarize.
    EXPECT_EQ(row.in_m, !row.m_witness.has_value());
    EXPECT_EQ(row.in_distinct, !row.distinct_witness.has_value());
    EXPECT_EQ(row.in_disjoint, !row.disjoint_witness.has_value());
    cells.push_back(RenderCell(row.m_witness));
    cells.push_back(RenderCell(row.distinct_witness));
    cells.push_back(RenderCell(row.disjoint_witness));
  }
  return cells;
}

// Compares ComputeLadder with the per-cell definition at threads 1 and 4,
// symmetry auto and off; returns the number of cells compared.
size_t ExpectLadderMatchesCells(const Query& query, size_t max_i,
                                ExhaustiveOptions base,
                                const std::string& label) {
  size_t compared = 0;
  for (SymmetryMode symmetry : {SymmetryMode::kAuto, SymmetryMode::kOff}) {
    base.symmetry = symmetry;
    base.threads = 1;
    Result<std::vector<std::string>> want = LadderByCells(query, max_i, base);
    for (size_t threads : {1u, 4u}) {
      base.threads = threads;
      Result<std::vector<std::string>> got = LadderCells(query, max_i, base);
      const std::string where = label + " symmetry=" +
                                (symmetry == SymmetryMode::kOff ? "off"
                                                                : "auto") +
                                " threads=" + std::to_string(threads);
      if (!want.ok() || !got.ok()) {
        EXPECT_EQ(got.status(), want.status()) << where;
        continue;
      }
      EXPECT_EQ(*got, *want) << where;
      compared += got->size();
    }
  }
  return compared;
}

// Unoptimized builds (CI builds its sanitizer legs as Debug) run this oracle
// 30 to 50x slower, past 15 minutes for 350 programs; there it keeps every
// shape, mode and thread count, and enough programs to drive the shared
// sweep from 4 threads, but fewer seeds.
#if defined(__OPTIMIZE__)
constexpr uint64_t kSeedsPerShape = 50;
#else
constexpr uint64_t kSeedsPerShape = 4;
#endif

TEST(LadderOracleTest, FuzzerProgramsMatchPerCellSweeps) {
  // Every shape, kSeedsPerShape seeds each, at the survey's classification
  // bounds.
  const workload::ClassifyOptions bounds;
  ExhaustiveOptions base;
  base.domain_size = bounds.domain_size;
  base.max_facts_i = bounds.max_facts_i;
  base.fresh_values = bounds.fresh_values;
  size_t compared = 0;
  for (size_t shape = 0; shape < workload::kProgramShapeCount; ++shape) {
    for (uint64_t seed = 1; seed <= kSeedsPerShape; ++seed) {
      workload::FuzzerOptions knobs;
      knobs.seed = seed;
      knobs.shape = static_cast<workload::ProgramShape>(shape);
      workload::GeneratedProgram program = workload::GenerateProgram(knobs);
      Result<datalog::Program> parsed = datalog::Parse(program.text);
      ASSERT_TRUE(parsed.ok()) << program.text;
      Result<datalog::DatalogQuery> query = datalog::DatalogQuery::Create(
          *parsed, "oracle", program.semantics);
      ASSERT_TRUE(query.ok()) << program.text;
      compared += ExpectLadderMatchesCells(
          *query, bounds.max_i, base,
          std::string(workload::ProgramShapeName(knobs.shape)) + " seed " +
              std::to_string(seed));
    }
  }
  // Programs x 2 symmetry modes x 2 thread counts x 3 * max_i cells.
  EXPECT_EQ(compared, workload::kProgramShapeCount * kSeedsPerShape * 2 * 2 *
                          3 * bounds.max_i);
}

TEST(LadderOracleTest, Figure1LaddersMatchPerCellSweeps) {
  // bench_fig1_hierarchy's rendered ladders, at max_i = 3.
  struct Case {
    const char* label;
    std::unique_ptr<Query> q;
    size_t domain_size;
    size_t fresh;
  };
  Case cases[] = {
      {"Q_clique_3", queries::MakeCliqueQuery(3), 3, 1},
      {"Q_star_2", queries::MakeStarQuery(2), 2, 3},
      {"Q_TC", queries::MakeComplementTransitiveClosure(), 2, 1},
  };
  for (Case& c : cases) {
    ExhaustiveOptions o;
    o.domain_size = c.domain_size;
    o.max_facts_i = 3;
    o.fresh_values = c.fresh;
    EXPECT_EQ(ExpectLadderMatchesCells(*c.q, 3, o, c.label), 2u * 2 * 9)
        << c.label;
  }
}

TEST(LadderOracleTest, StreamedReducedSweepMatchesPerCellSweeps) {
  // Bounds past the sweep-plan cap (2^17 pairs), so the reduced sweep
  // streams its canonical J subsets, pruning supersets no open cell needs,
  // instead of walking a precomputed plan.
  auto q = queries::MakeComplementTransitiveClosure();
  ExhaustiveOptions o;
  o.domain_size = 3;
  o.max_facts_i = 2;
  o.fresh_values = 3;
  EXPECT_EQ(ExpectLadderMatchesCells(*q, 4, o, "Q_TC streamed"), 2u * 2 * 12);
}

TEST(LadderOracleTest, FirstFailingCellDecidesTheError) {
  // The identity on E, except that a fact from a fresh value into an old one
  // drops every output (so some cells find witnesses first), and any input
  // of three or more facts fails, naming the input: the cells' first errors
  // differ, so the returned status pins the cell and pair that raised it.
  auto fresh = [](Value v) { return v.payload() >= 1000; };
  NativeQuery q(
      "fresh-to-old-drop", Schema({{"E", 2}}), Schema({{"O", 2}}),
      [fresh](const Instance& in) -> Result<Instance> {
        if (in.size() >= 3) {
          return ResourceExhaustedError("three facts in " + in.ToString());
        }
        Instance out;
        bool drop = false;
        in.ForEachFact([&](uint32_t, const Tuple& t) {
          drop = drop || (fresh(t[0]) && !fresh(t[1]));
          out.Insert(Fact("O", t));
        });
        return drop ? Instance() : out;
      });
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 2;
  o.symmetry = SymmetryMode::kOff;
  Result<std::vector<std::string>> want = LadderByCells(q, 3, o);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().code(), StatusCode::kResourceExhausted);
  ExpectLadderMatchesCells(q, 3, o, "fresh-to-old-drop");
}

TEST(LadderOracleTest, CheckpointDirIsRejected) {
  auto tc = queries::MakeTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.checkpoint_dir = ::testing::TempDir() + "calm_ladder_ckpt";
  for (size_t max_i : {0u, 1u, 3u}) {
    Result<Ladder> ladder = ComputeLadder(*tc, max_i, o);
    ASSERT_FALSE(ladder.ok()) << max_i;
    EXPECT_EQ(ladder.status().code(), StatusCode::kInvalidArgument) << max_i;
  }
}

}  // namespace
}  // namespace calm::monotonicity
