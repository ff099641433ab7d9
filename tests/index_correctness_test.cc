// Differential testing of the equality hash indexes: randomized insert /
// delete interleavings against an indexed table and an identical unindexed
// twin must produce identical rows for every probe and every executed
// query — the index is an access path, never a semantics change.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

std::string RowsToString(const std::vector<Row>& rows) {
  std::ostringstream out;
  for (const Row& row : rows) {
    for (const Value& v : row) out << v.ToString() << ",";
    out << "\n";
  }
  return out.str();
}

/// Linear-scan reference for one equality probe.
std::vector<size_t> ReferenceLookup(const Table& table, size_t col,
                                    const Value& v) {
  std::vector<size_t> out;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (table.RowAt(i)[col] == v) out.push_back(i);
  }
  return out;
}

TEST(IndexCorrectnessTest, RandomInsertsAndDeletesAgainstLinearScan) {
  std::mt19937_64 rng(2024);
  Table table(TableSchema()
                  .AddColumn("a", ValueType::kInt64)
                  .AddColumn("b", ValueType::kString));
  ASSERT_TRUE(table.BuildIndex("a").ok());
  ASSERT_TRUE(table.BuildIndex("b").ok());

  const char* kTexts[] = {"x", "y", "z", "w"};
  for (int round = 0; round < 60; ++round) {
    // A batch of random appends (index maintained incrementally)...
    size_t appends = rng() % 8;
    for (size_t i = 0; i < appends; ++i) {
      ASSERT_TRUE(table
                      .Append(Row{Value(int64_t(rng() % 10)),
                                  Value(std::string(kTexts[rng() % 4]))})
                      .ok());
    }
    // ...sometimes followed by a random deletion (index invalidated,
    // rebuilt by RefreshIndexes).
    if (rng() % 3 == 0 && table.NumRows() > 0) {
      std::unordered_set<int64_t> remove;
      for (size_t i = 0; i < table.NumRows(); ++i) {
        if (rng() % 4 == 0) remove.insert(table.RowIdAt(i));
      }
      table.RemoveIds(remove);
      EXPECT_FALSE(table.HasValidIndex(0));
      std::vector<size_t> unused;
      EXPECT_FALSE(table.IndexLookup(0, Value(int64_t(1)), &unused));
      table.RefreshIndexes();
    }
    ASSERT_TRUE(table.HasValidIndex(0));
    ASSERT_TRUE(table.HasValidIndex(1));

    // Every probeable value, both columns, must match the linear scan
    // exactly — same positions, same (ascending) order.
    for (int64_t a = 0; a < 10; ++a) {
      std::vector<size_t> via_index;
      ASSERT_TRUE(table.IndexLookup(0, Value(a), &via_index));
      EXPECT_EQ(via_index, ReferenceLookup(table, 0, Value(a)))
          << "round " << round << " a=" << a;
    }
    for (const char* text : kTexts) {
      std::vector<size_t> via_index;
      ASSERT_TRUE(table.IndexLookup(1, Value(std::string(text)), &via_index));
      EXPECT_EQ(via_index, ReferenceLookup(table, 1, Value(std::string(text))))
          << "round " << round << " b=" << text;
    }
  }
}

TEST(IndexCorrectnessTest, ExecutorResultsIdenticalWithAndWithoutIndexes) {
  std::mt19937_64 rng(7);

  // Twin databases: identical contents, only one has indexes.
  Database indexed_db;
  Database plain_db;
  for (Database* db : {&indexed_db, &plain_db}) {
    ASSERT_TRUE(db->CreateTable("r", TableSchema()
                                         .AddColumn("a", ValueType::kInt64)
                                         .AddColumn("b", ValueType::kInt64)
                                         .AddColumn("c", ValueType::kString))
                    .ok());
    ASSERT_TRUE(db->CreateTable("s", TableSchema()
                                         .AddColumn("a", ValueType::kInt64)
                                         .AddColumn("d", ValueType::kInt64))
                    .ok());
  }
  const char* kTexts[] = {"x", "y", "z"};
  auto append_everywhere = [&](const std::string& name, const Row& row) {
    for (Database* db : {&indexed_db, &plain_db}) {
      ASSERT_TRUE(db->GetTable(name).value()->Append(row).ok());
    }
  };
  for (int i = 0; i < 200; ++i) {
    append_everywhere("r", Row{Value(int64_t(rng() % 6)),
                               Value(int64_t(rng() % 10)),
                               Value(std::string(kTexts[rng() % 3]))});
  }
  for (int i = 0; i < 80; ++i) {
    append_everywhere("s", Row{Value(int64_t(rng() % 6)),
                               Value(int64_t(rng() % 10))});
  }
  Table* r = indexed_db.GetTable("r").value();
  Table* s = indexed_db.GetTable("s").value();
  ASSERT_TRUE(r->BuildIndex("a").ok());
  ASSERT_TRUE(r->BuildIndex("b").ok());
  ASSERT_TRUE(r->BuildIndex("c").ok());
  ASSERT_TRUE(s->BuildIndex("a").ok());

  Engine indexed(&indexed_db);
  Engine plain(&plain_db);

  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) {
    int64_t a = int64_t(rng() % 6);
    int64_t b = int64_t(rng() % 10);
    std::string c = kTexts[rng() % 3];
    switch (rng() % 5) {
      case 0:
        queries.push_back("SELECT * FROM r WHERE a = " + std::to_string(a));
        break;
      case 1:  // literal-first orientation
        queries.push_back("SELECT * FROM r WHERE " + std::to_string(b) +
                          " = b");
        break;
      case 2:  // conjunctive equalities: most selective probe wins
        queries.push_back("SELECT * FROM r WHERE a = " + std::to_string(a) +
                          " AND b = " + std::to_string(b) + " AND c = '" + c +
                          "'");
        break;
      case 3:  // probe + non-equality residual
        queries.push_back("SELECT * FROM r WHERE c = '" + c +
                          "' AND b < " + std::to_string(b));
        break;
      default:  // join with per-relation pushdowns
        queries.push_back("SELECT r.b, s.d FROM r, s WHERE r.a = s.a AND "
                          "r.c = '" + c + "' AND s.a = " + std::to_string(a));
        break;
    }
  }

  size_t probes_seen = 0;
  for (const std::string& sql : queries) {
    auto with_index = indexed.ExecuteSql(sql);
    auto without = plain.ExecuteSql(sql);
    ASSERT_TRUE(with_index.ok()) << sql;
    ASSERT_TRUE(without.ok()) << sql;
    // Exact equality, order included: an index probe emits positions in
    // ascending order, i.e. the same order a full scan produces.
    EXPECT_EQ(RowsToString(with_index->rows), RowsToString(without->rows))
        << sql;

    Executor executor(indexed.db_catalog());
    auto parsed = Parser::Parse(sql);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(executor.Execute(*parsed->select).ok());
    probes_seen += executor.scan_stats().index_probes;
    EXPECT_GT(executor.scan_stats().index_probes, 0u) << sql;
    EXPECT_GT(executor.scan_stats().index_hits, 0u) << sql;
  }
  EXPECT_GT(probes_seen, 0u);

  // Mutate both copies identically through the engine (DELETE invalidates,
  // the next query falls back to scans — results must still agree).
  for (Engine* e : {&indexed, &plain}) {
    ASSERT_TRUE(e->ExecuteSql("DELETE FROM r WHERE b = 3").ok());
  }
  for (const std::string& sql : queries) {
    auto with_index = indexed.ExecuteSql(sql);
    auto without = plain.ExecuteSql(sql);
    ASSERT_TRUE(with_index.ok()) << sql;
    ASSERT_TRUE(without.ok()) << sql;
    EXPECT_EQ(RowsToString(with_index->rows), RowsToString(without->rows))
        << sql;
  }
  // After a refresh the probes serve again, still with identical results.
  r->RefreshIndexes();
  for (const std::string& sql : queries) {
    auto with_index = indexed.ExecuteSql(sql);
    auto without = plain.ExecuteSql(sql);
    ASSERT_TRUE(with_index.ok() && without.ok()) << sql;
    EXPECT_EQ(RowsToString(with_index->rows), RowsToString(without->rows))
        << sql;
  }
}

// An index probe answers `col = v` under SQL `=`: a DOUBLE probe value
// finds the equal INT64 rows (and vice versa) exactly as the scan filter
// would, so the probe only changes the access path, never the result.
TEST(IndexCorrectnessTest, ProbeMatchesAcrossNumericRepresentations) {
  const char* kQueries[] = {
      "SELECT DISTINCT r.a FROM r, s WHERE r.a = 1.0",
      "SELECT r.a FROM r WHERE r.a = 2.0",
      "SELECT r.a FROM r WHERE r.a = 1.5",
      "SELECT s.x FROM s WHERE s.x = 1",
      "SELECT s.x FROM s WHERE s.x = 3",
  };
  Database indexed_db;
  Database plain_db;
  for (Database* db : {&indexed_db, &plain_db}) {
    Engine engine(db);
    ASSERT_TRUE(engine
                    .ExecuteScript(R"sql(
      CREATE TABLE r (a INT, tag TEXT);
      INSERT INTO r VALUES (1, 'one'), (2, 'two'), (1, 'uno');
      CREATE TABLE s (x DOUBLE);
      INSERT INTO s VALUES (1.0), (2.5);
    )sql")
                    .ok());
  }
  ASSERT_TRUE(indexed_db.GetTable("r").value()->BuildIndex("a").ok());
  ASSERT_TRUE(indexed_db.GetTable("s").value()->BuildIndex("x").ok());
  Engine indexed(&indexed_db);
  Engine plain(&plain_db);
  for (const char* sql : kQueries) {
    auto with_index = indexed.ExecuteSql(sql);
    auto without = plain.ExecuteSql(sql);
    ASSERT_TRUE(with_index.ok()) << sql;
    ASSERT_TRUE(without.ok()) << sql;
    EXPECT_EQ(RowsToString(with_index->rows), RowsToString(without->rows))
        << sql;
  }
  auto distinct = indexed.ExecuteSql(kQueries[0]);
  ASSERT_TRUE(distinct.ok());
  ASSERT_EQ(distinct->rows.size(), 1u);
  EXPECT_EQ(distinct->rows[0][0], Value(int64_t{1}));

  // The lookup itself: both representations, ascending positions; NULL
  // finds nothing.
  const Table* r = indexed_db.GetTable("r").value();
  std::vector<size_t> hits;
  ASSERT_TRUE(r->IndexLookup(0, Value(1.0), &hits));
  EXPECT_EQ(hits, (std::vector<size_t>{0, 2}));
  hits.clear();
  ASSERT_TRUE(r->IndexLookup(0, Value::Null(), &hits));
  EXPECT_TRUE(hits.empty());
}

}  // namespace
}  // namespace datalawyer
