#include "common/value_hash.h"

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "storage/table.h"

namespace datalawyer {
namespace {

// The shared functor's contract (see Value::Hash): hash is consistent with
// operator==, and additionally int64/double holding the same number hash
// alike. Every equality container in the engine — the usage-log hash
// indexes and the executor's hash joins — keys on this one functor.
TEST(ValueHashTest, HashConsistentWithEquality) {
  EXPECT_EQ(ValueHash()(Value(int64_t{7})), ValueHash()(Value(int64_t{7})));
  EXPECT_EQ(ValueHash()(Value("abc")), ValueHash()(Value("abc")));
  EXPECT_EQ(ValueHash()(Value::Null()), ValueHash()(Value::Null()));
  // The documented extra: integral doubles collide with their int64 twin
  // (required so a future Compare-based equal_to could match them).
  EXPECT_EQ(ValueHash()(Value(int64_t{7})), ValueHash()(Value(7.0)));
}

TEST(ValueHashTest, RowHashMixesValueHash) {
  Row a = {Value(int64_t{1}), Value("x")};
  Row b = {Value(int64_t{1}), Value("x")};
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  // Cross-representation rows hash alike (per-value collision carries
  // through the mixing), even though operator== is type-strict.
  Row c = {Value(1.0), Value("x")};
  EXPECT_EQ(RowHash()(a), RowHash()(c));
  Row d = {Value("x"), Value(int64_t{1})};  // order matters
  EXPECT_NE(RowHash()(a), RowHash()(d));
}

// Pins key equality across the two call sites that share the functor: a
// key that matches through the table's hash index matches through the
// executor's hash join, and both decide it with SQL `=` (1 meets 1.0), the
// equality the same conjunct has when evaluated row by row. The two sites
// must never drift apart.
TEST(ValueHashTest, IndexProbeAndHashJoinAgree) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE TABLE ints (k INT, tag TEXT);
    INSERT INTO ints VALUES (1, 'one'), (2, 'two');
    CREATE TABLE more_ints (k INT, tag TEXT);
    INSERT INTO more_ints VALUES (1, 'uno'), (3, 'tres');
    CREATE TABLE doubles (k DOUBLE, tag TEXT);
    INSERT INTO doubles VALUES (1.0, 'ein'), (3.0, 'drei');
  )sql")
                  .ok());
  Table* ints = db.FindTable("ints");
  ASSERT_TRUE(ints->BuildIndex("k").ok());

  // Same-type key: the index finds it, and so does the join.
  std::vector<size_t> hits;
  ASSERT_TRUE(ints->IndexLookup(0, Value(int64_t{1}), &hits));
  EXPECT_EQ(hits.size(), 1u);
  auto joined = engine.ExecuteSql(
      "SELECT ints.tag, more_ints.tag FROM ints, more_ints "
      "WHERE ints.k = more_ints.k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->rows.size(), 1u);
  EXPECT_EQ(joined->rows[0][1].AsString(), "uno");

  // Cross-representation key: both sites make the same SQL `=` decision —
  // the index probe with 1.0 finds the stored 1, and the int/double hash
  // join pairs them.
  hits.clear();
  ASSERT_TRUE(ints->IndexLookup(0, Value(1.0), &hits));
  EXPECT_EQ(hits, std::vector<size_t>{0});
  auto cross = engine.ExecuteSql(
      "SELECT ints.tag, doubles.tag FROM ints, doubles "
      "WHERE ints.k = doubles.k");
  ASSERT_TRUE(cross.ok()) << cross.status().ToString();
  ASSERT_EQ(cross->rows.size(), 1u);
  EXPECT_EQ(cross->rows[0][0].AsString(), "one");
  EXPECT_EQ(cross->rows[0][1].AsString(), "ein");
}

}  // namespace
}  // namespace datalawyer
