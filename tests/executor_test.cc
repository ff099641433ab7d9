#include <gtest/gtest.h>

#include <set>

#include "exec/engine.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE r (k INT, v TEXT, w DOUBLE);
      INSERT INTO r VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'a', 3.5),
                           (4, 'c', 4.5), (5, 'b', 5.5), (2, 'b', 0.5);
      CREATE TABLE s (k INT, tag TEXT);
      INSERT INTO s VALUES (1, 'one'), (2, 'two'), (2, 'dos'), (9, 'nine');
      CREATE TABLE tiny (x INT);
      INSERT INTO tiny VALUES (10), (20);
      CREATE TABLE withnull (k INT, v TEXT);
      INSERT INTO withnull VALUES (1, 'p'), (NULL, 'q'), (2, NULL);
    )sql")
                    .ok());
  }

  QueryResult Q(const std::string& sql, ExecOptions options = {}) {
    auto result = engine_->ExecuteSql(sql, options);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ExecutorTest, HashJoinMatchesExpectedPairs) {
  QueryResult r = Q("SELECT r.k, s.tag FROM r, s WHERE r.k = s.k ORDER BY k");
  // r has k=1 once, k=2 twice; s has k=1 once, k=2 twice → 1 + 2*2 = 5.
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.rows[0][1], Value("one"));
}

// Hash-join keys compare with SQL `=`, which equates INT64 1 and DOUBLE
// 1.0: the equi-join must agree with the same condition written as a
// range pair (evaluated row by row), with the optimizer on or off.
TEST_F(ExecutorTest, HashJoinMatchesIntAgainstDouble) {
  ASSERT_TRUE(engine_
                  ->ExecuteScript(R"sql(
    CREATE TABLE ints (a INT);
    INSERT INTO ints VALUES (1), (2);
    CREATE TABLE dbls (x DOUBLE);
    INSERT INTO dbls VALUES (1.0), (2.5);
  )sql")
                  .ok());
  for (bool optimizer : {true, false}) {
    ExecOptions options;
    options.enable_optimizer = optimizer;
    QueryResult eq =
        Q("SELECT ints.a, dbls.x FROM ints, dbls WHERE ints.a = dbls.x",
          options);
    ASSERT_EQ(eq.NumRows(), 1u) << "optimizer " << optimizer;
    EXPECT_EQ(eq.rows[0][0], Value(int64_t{1}));
    EXPECT_EQ(eq.rows[0][1], Value(1.0));
    QueryResult range = Q(
        "SELECT ints.a, dbls.x FROM ints, dbls "
        "WHERE ints.a <= dbls.x AND ints.a >= dbls.x",
        options);
    ASSERT_EQ(range.NumRows(), eq.NumRows());
    EXPECT_EQ(RowToString(range.rows[0]), RowToString(eq.rows[0]));
  }
}

TEST_F(ExecutorTest, CrossJoin) {
  QueryResult r = Q("SELECT r.k, tiny.x FROM r, tiny");
  EXPECT_EQ(r.NumRows(), 12u);  // 6 × 2
}

TEST_F(ExecutorTest, NestedLoopWithInequality) {
  QueryResult r = Q("SELECT r.k, tiny.x FROM r, tiny WHERE r.k * 10 > tiny.x");
  // k*10 > 10 for k>=2 (5 rows); k*10 > 20 for k>=3 (3 rows): 8 rows.
  EXPECT_EQ(r.NumRows(), 8u);
}

TEST_F(ExecutorTest, JoinOnExpression) {
  QueryResult r = Q("SELECT r.k FROM r, tiny WHERE r.k * 10 = tiny.x");
  ASSERT_EQ(r.NumRows(), 3u);  // k=1 → 10, k=2 twice → 20
}

TEST_F(ExecutorTest, NullsNeverJoin) {
  QueryResult r = Q("SELECT w.k FROM withnull w, r WHERE w.k = r.k");
  // NULL key joins nothing; k=1 matches once, k=2 matches the two k=2 rows.
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(ExecutorTest, ThreeValuedWhere) {
  // v = NULL row: predicate NULL → filtered out (not an error).
  QueryResult r = Q("SELECT w.k FROM withnull w WHERE w.v != 'p'");
  EXPECT_EQ(r.NumRows(), 1u);
  QueryResult isnull = Q("SELECT w.v FROM withnull w WHERE w.k IS NULL");
  ASSERT_EQ(isnull.NumRows(), 1u);
  EXPECT_EQ(isnull.rows[0][0], Value("q"));
  QueryResult notnull = Q("SELECT w.v FROM withnull w WHERE w.k IS NOT NULL");
  EXPECT_EQ(notnull.NumRows(), 2u);
}

TEST_F(ExecutorTest, AggregatesPerGroup) {
  QueryResult r = Q(
      "SELECT v, COUNT(*) AS n, SUM(k) AS sk, MIN(w) AS mn, MAX(w) AS mx, "
      "AVG(k) AS ak FROM r GROUP BY v ORDER BY v");
  ASSERT_EQ(r.NumRows(), 3u);
  // group 'a': rows (1,a,1.5), (3,a,3.5)
  EXPECT_EQ(r.rows[0][1], Value(int64_t{2}));
  EXPECT_EQ(r.rows[0][2], Value(int64_t{4}));
  EXPECT_EQ(r.rows[0][3], Value(1.5));
  EXPECT_EQ(r.rows[0][4], Value(3.5));
  EXPECT_EQ(r.rows[0][5], Value(2.0));
  // group 'b': rows (2,b,2.5), (5,b,5.5), (2,b,0.5)
  EXPECT_EQ(r.rows[1][1], Value(int64_t{3}));
  EXPECT_EQ(r.rows[1][2], Value(int64_t{9}));
}

TEST_F(ExecutorTest, CountDistinctAndNullSkipping) {
  QueryResult r = Q(
      "SELECT COUNT(*) AS stars, COUNT(w.k) AS ks, "
      "COUNT(DISTINCT w.k) AS dk, COUNT(w.v) AS vs FROM withnull w");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(int64_t{3}));  // COUNT(*) counts NULLs
  EXPECT_EQ(r.rows[0][1], Value(int64_t{2}));  // k NULL skipped
  EXPECT_EQ(r.rows[0][2], Value(int64_t{2}));
  EXPECT_EQ(r.rows[0][3], Value(int64_t{2}));

  QueryResult dups = Q("SELECT COUNT(DISTINCT r.k) FROM r");
  EXPECT_EQ(dups.rows[0][0], Value(int64_t{5}));  // k=2 twice
}

TEST_F(ExecutorTest, EmptyInputAggregates) {
  QueryResult r = Q(
      "SELECT COUNT(*), SUM(r.k), MIN(r.k), AVG(r.k) FROM r WHERE r.k > 99");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(int64_t{0}));
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());

  // With GROUP BY, an empty input yields zero groups instead.
  QueryResult grouped =
      Q("SELECT r.v, COUNT(*) FROM r WHERE r.k > 99 GROUP BY r.v");
  EXPECT_EQ(grouped.NumRows(), 0u);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  QueryResult r =
      Q("SELECT v FROM r GROUP BY v HAVING COUNT(*) >= 2 ORDER BY v");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0], Value("a"));
  EXPECT_EQ(r.rows[1][0], Value("b"));
}

TEST_F(ExecutorTest, HavingOverGlobalEmptyGroup) {
  QueryResult violated = Q(
      "SELECT 1 FROM r WHERE r.k > 99 HAVING COUNT(*) < 5");
  EXPECT_EQ(violated.NumRows(), 1u);  // count 0 < 5
  QueryResult ok = Q("SELECT 1 FROM r WHERE r.k > 99 HAVING COUNT(*) > 0");
  EXPECT_EQ(ok.NumRows(), 0u);
}

TEST_F(ExecutorTest, DistinctOnKeepsOnePerKey) {
  QueryResult r = Q("SELECT DISTINCT ON (r.v) r.* FROM r");
  EXPECT_EQ(r.NumRows(), 3u);
  std::set<std::string> keys;
  for (const Row& row : r.rows) keys.insert(row[1].AsString());
  EXPECT_EQ(keys.size(), 3u);

  // Constant key: exactly one row survives.
  QueryResult one = Q("SELECT DISTINCT ON (1) r.* FROM r");
  EXPECT_EQ(one.NumRows(), 1u);
}

TEST_F(ExecutorTest, DistinctDeduplicatesOutput) {
  QueryResult r = Q("SELECT DISTINCT r.v FROM r");
  EXPECT_EQ(r.NumRows(), 3u);
  QueryResult k = Q("SELECT DISTINCT r.k FROM r");
  EXPECT_EQ(k.NumRows(), 5u);
}

TEST_F(ExecutorTest, UnionSemantics) {
  QueryResult dedup = Q("SELECT r.k FROM r UNION SELECT s.k FROM s");
  EXPECT_EQ(dedup.NumRows(), 6u);  // {1,2,3,4,5,9}
  QueryResult all = Q("SELECT r.k FROM r UNION ALL SELECT s.k FROM s");
  EXPECT_EQ(all.NumRows(), 10u);  // 6 + 4
}

TEST_F(ExecutorTest, OrderByDirectionsAndPositions) {
  QueryResult r = Q("SELECT r.k, r.w FROM r ORDER BY k DESC, w ASC");
  ASSERT_EQ(r.NumRows(), 6u);
  EXPECT_EQ(r.rows[0][0], Value(int64_t{5}));
  // k=2 appears twice: w ascending breaks the tie.
  EXPECT_EQ(r.rows[3][1], Value(0.5));
  EXPECT_EQ(r.rows[4][1], Value(2.5));

  QueryResult pos = Q("SELECT r.k FROM r ORDER BY 1 LIMIT 2");
  ASSERT_EQ(pos.NumRows(), 2u);
  EXPECT_EQ(pos.rows[0][0], Value(int64_t{1}));
}

TEST_F(ExecutorTest, LimitWithoutOrder) {
  EXPECT_EQ(Q("SELECT r.k FROM r LIMIT 4").NumRows(), 4u);
  EXPECT_EQ(Q("SELECT r.k FROM r LIMIT 0").NumRows(), 0u);
  EXPECT_EQ(Q("SELECT r.k FROM r LIMIT 100").NumRows(), 6u);
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  QueryResult r = Q("SELECT 1 + 2 AS three, 'x'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(int64_t{3}));
}

TEST_F(ExecutorTest, ConstantFalseWhereShortCircuits) {
  EXPECT_EQ(Q("SELECT r.k FROM r WHERE 1 = 2").NumRows(), 0u);
  EXPECT_EQ(Q("SELECT r.k FROM r WHERE 1 = 1 AND r.k = 1").NumRows(), 1u);
}

TEST_F(ExecutorTest, SubqueryPipelines) {
  QueryResult r = Q(
      "SELECT agg.v, agg.n FROM "
      "(SELECT r.v AS v, COUNT(*) AS n FROM r GROUP BY r.v) agg "
      "WHERE agg.n > 1 ORDER BY v");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0], Value("a"));
  EXPECT_EQ(r.rows[0][1], Value(int64_t{2}));

  // Nested two levels.
  QueryResult nested = Q(
      "SELECT x.n FROM (SELECT inner2.n AS n FROM "
      "(SELECT COUNT(*) AS n FROM r) inner2) x");
  ASSERT_EQ(nested.NumRows(), 1u);
  EXPECT_EQ(nested.rows[0][0], Value(int64_t{6}));
}

// ---------------------------------------------------------------------------
// Lineage properties
// ---------------------------------------------------------------------------

ExecOptions Capture() {
  ExecOptions options;
  options.capture_lineage = true;
  return options;
}

TEST_F(ExecutorTest, SelectionLineageIsExactlyTheMatchingRow) {
  QueryResult r = Q("SELECT r.v FROM r WHERE r.k = 4", Capture());
  ASSERT_EQ(r.NumRows(), 1u);
  ASSERT_TRUE(r.has_lineage);
  ASSERT_EQ(r.lineage[0].size(), 1u);
  EXPECT_EQ(r.base_relations[r.lineage[0][0].rel], "r");
  EXPECT_EQ(r.lineage[0][0].row_id, 3);  // 4th inserted row
}

TEST_F(ExecutorTest, JoinLineageHasBothSides) {
  QueryResult r =
      Q("SELECT r.v FROM r, s WHERE r.k = s.k AND s.tag = 'one'", Capture());
  ASSERT_EQ(r.NumRows(), 1u);
  ASSERT_EQ(r.lineage[0].size(), 2u);
  std::set<std::string> rels;
  for (const LineageEntry& e : r.lineage[0]) {
    rels.insert(r.base_relations[e.rel]);
  }
  EXPECT_EQ(rels, (std::set<std::string>{"r", "s"}));
}

TEST_F(ExecutorTest, GroupLineageIsUnionOfMembers) {
  QueryResult r = Q(
      "SELECT r.v, COUNT(*) FROM r GROUP BY r.v HAVING COUNT(*) = 3",
      Capture());
  ASSERT_EQ(r.NumRows(), 1u);  // group 'b' with 3 rows
  EXPECT_EQ(r.lineage[0].size(), 3u);
}

TEST_F(ExecutorTest, DistinctLineageMergesDuplicates) {
  QueryResult r = Q("SELECT DISTINCT r.v FROM r", Capture());
  ASSERT_EQ(r.NumRows(), 3u);
  size_t total = 0;
  for (const LineageSet& l : r.lineage) total += l.size();
  EXPECT_EQ(total, 6u);  // every input row contributes to some output
}

TEST_F(ExecutorTest, SubqueryLineageReachesBaseTables) {
  QueryResult r = Q(
      "SELECT agg.n FROM (SELECT COUNT(*) AS n FROM r WHERE r.v = 'a') agg",
      Capture());
  ASSERT_EQ(r.NumRows(), 1u);
  ASSERT_EQ(r.lineage[0].size(), 2u);  // the two 'a' rows
  for (const LineageEntry& e : r.lineage[0]) {
    EXPECT_EQ(r.base_relations[e.rel], "r");
  }
}

TEST_F(ExecutorTest, LineageDisabledByDefault) {
  QueryResult r = Q("SELECT r.k FROM r");
  EXPECT_FALSE(r.has_lineage);
  EXPECT_TRUE(r.lineage.empty());
}

// Exhaustive consistency sweep: every query must return identical rows with
// and without lineage capture, and captured lineage must reference valid
// base rows.
class LineageConsistencyTest
    : public ExecutorTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(LineageConsistencyTest, SameResultsAndValidLineage) {
  // ExecutorTest::SetUp already populated db_ via the fixture.
  std::string sql = GetParam();
  auto plain = engine_->ExecuteSql(sql);
  auto traced = engine_->ExecuteSql(sql, Capture());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(plain->NumRows(), traced->NumRows()) << sql;
  ASSERT_EQ(traced->lineage.size(), traced->NumRows());
  for (const LineageSet& lineage : traced->lineage) {
    for (const LineageEntry& entry : lineage) {
      ASSERT_LT(entry.rel, traced->base_relations.size());
      const Table* table =
          db_.FindTable(traced->base_relations[entry.rel]);
      ASSERT_NE(table, nullptr);
      bool found = false;
      for (size_t i = 0; i < table->NumRows(); ++i) {
        if (table->RowIdAt(i) == entry.row_id) found = true;
      }
      EXPECT_TRUE(found) << "dangling lineage id in " << sql;
    }
    // Normalized: sorted, unique.
    for (size_t i = 1; i < lineage.size(); ++i) {
      EXPECT_TRUE(lineage[i - 1] < lineage[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LineageConsistencyTest,
    ::testing::Values(
        "SELECT * FROM r",
        "SELECT r.k + 1 FROM r WHERE r.w > 2.0",
        "SELECT r.v, s.tag FROM r, s WHERE r.k = s.k",
        "SELECT r.v, COUNT(*) FROM r GROUP BY r.v",
        "SELECT DISTINCT r.v FROM r, s WHERE r.k = s.k",
        "SELECT DISTINCT ON (r.v) r.k FROM r",
        "SELECT r.k FROM r UNION SELECT s.k FROM s",
        "SELECT a.n FROM (SELECT COUNT(*) AS n FROM r GROUP BY r.v) a "
        "WHERE a.n > 1",
        "SELECT r.v, COUNT(DISTINCT r.k) FROM r, tiny "
        "WHERE r.k * 10 = tiny.x GROUP BY r.v",
        "SELECT 1 FROM r HAVING COUNT(*) > 100"));

}  // namespace
}  // namespace datalawyer
