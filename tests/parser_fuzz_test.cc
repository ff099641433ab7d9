// Robustness: the parser must never crash, hang, or accept garbage — on
// random token soup, on truncations of valid queries, and on deep nesting.
// What parses also runs through the binder and executor, with the
// optimizer on and off, over a two-table catalog.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "exec/engine.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

const char* kFragments[] = {
    "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",    "HAVING", "DISTINCT",
    "ON",     "UNION", "ALL",    "AND",    "OR",    "NOT",    "COUNT",
    "(",      ")",     ",",      ".",      "*",     "=",      "!=",
    "<",      ">",     "<=",     ">=",     "+",     "-",      "/",
    "%",      "'s'",   "42",     "3.14",   "t",     "a",      "b",
    "users",  "ts",    "NULL",   "TRUE",   "FALSE", "AS",     "IN",
    "LIKE",   "BETWEEN", "IS",   ";",      "LIMIT", "ORDER",
};

// Runs a parsed SELECT through Executor twice, with the optimizer on and
// off, over two small tables the token soup can name (`t`, `users`). Any
// Status is fine; where both runs succeed they return the same rows in the
// same order.
class ExecutionOracle {
 public:
  ExecutionOracle() : engine_(&db_) {
    EXPECT_TRUE(engine_
                    .ExecuteScript(
                        "CREATE TABLE t (a INT, b INT, ts INT);"
                        "INSERT INTO t VALUES (1, 2, 10), (2, NULL, 20), "
                        "(3, 3, 30);"
                        "CREATE TABLE users (uid INT, ts INT);"
                        "INSERT INTO users VALUES (1, 10), (2, 20);")
                    .ok());
  }

  void Check(const Statement& stmt, const std::string& sql) {
    if (stmt.kind != StatementKind::kSelect) return;
    ExecOptions naive;
    naive.enable_optimizer = false;
    Result<QueryResult> optimized =
        Executor(engine_.db_catalog()).Execute(*stmt.select);
    Result<QueryResult> plain =
        Executor(engine_.db_catalog(), naive).Execute(*stmt.select);
    ++executed_;
    if (!optimized.ok() || !plain.ok()) return;
    ++both_ok_;
    EXPECT_TRUE(optimized->rows == plain->rows) << sql;
  }

  int executed() const { return executed_; }
  int both_ok() const { return both_ok_; }

 private:
  Database db_;
  Engine engine_;
  int executed_ = 0;
  int both_ok_ = 0;
};

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  ExecutionOracle oracle;
  std::mt19937_64 rng(2024);
  for (int round = 0; round < 3000; ++round) {
    std::string sql;
    int length = 1 + int(rng() % 30);
    for (int i = 0; i < length; ++i) {
      sql += kFragments[rng() % std::size(kFragments)];
      sql += " ";
    }
    // Must terminate and either parse or fail cleanly; never crash.
    auto result = Parser::Parse(sql);
    if (result.ok()) {
      // Whatever parsed must round-trip through its own printer.
      if (result->kind == StatementKind::kSelect) {
        std::string printed = result->select->ToString();
        auto again = Parser::ParseSelect(printed);
        EXPECT_TRUE(again.ok()) << "round-trip broke for: " << printed;
      }
      oracle.Check(*result, sql);
    }
  }
  // The soup reaches the executor, and some of it runs.
  EXPECT_GT(oracle.executed(), 0);
  EXPECT_GT(oracle.both_ok(), 0);
}

TEST(ParserFuzzTest, TruncationsOfValidQueriesFailCleanly) {
  ExecutionOracle oracle;
  std::vector<std::string> bases;
  for (const auto& [name, sql] : PaperQueries::All()) bases.push_back(sql);
  for (const auto& [name, sql] : PaperPolicies::All()) bases.push_back(sql);
  for (const std::string& base : bases) {
    for (size_t cut = 0; cut < base.size(); cut += 7) {
      std::string sql = base.substr(0, cut);
      auto result = Parser::Parse(sql);
      // Any Status is fine; crashing/hanging is not.
      if (result.ok()) oracle.Check(*result, sql);
    }
  }
  EXPECT_GT(oracle.executed(), 0);
}

TEST(ParserFuzzTest, RandomBytesNeverCrashLexerOrParser) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 2000; ++round) {
    std::string sql;
    int length = int(rng() % 60);
    for (int i = 0; i < length; ++i) {
      sql += char(32 + rng() % 95);  // printable ASCII
    }
    auto result = Parser::Parse(sql);
    (void)result;
  }
}

TEST(ParserFuzzTest, DeepNestingParses) {
  // Deeply parenthesized arithmetic and nested subqueries: recursive
  // descent must handle reasonable depth without smashing the stack.
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  EXPECT_TRUE(Parser::Parse("SELECT " + expr).ok());

  std::string nested = "SELECT 1 AS c0";
  for (int i = 0; i < 60; ++i) {
    nested = "SELECT q" + std::to_string(i) + ".c0 AS c0 FROM (" + nested +
             ") q" + std::to_string(i);
  }
  EXPECT_TRUE(Parser::Parse(nested).ok());
}

TEST(ParserFuzzTest, PaperPoliciesAllRoundTripThroughPrinter) {
  for (const auto& [name, sql] : PaperPolicies::All()) {
    auto first = Parser::ParseSelect(sql);
    ASSERT_TRUE(first.ok()) << name;
    std::string printed = (*first)->ToString();
    auto second = Parser::ParseSelect(printed);
    ASSERT_TRUE(second.ok()) << name << ": " << printed;
    EXPECT_EQ(printed, (*second)->ToString()) << name;
  }
}

}  // namespace
}  // namespace datalawyer
