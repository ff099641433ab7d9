// Differential test for the plan-time expression programs: every bound
// expression lowered by CompiledExpr must evaluate exactly as the reference
// tree walk (Eval / EvalPredicate) — the same Value, or the same Status code
// and message — over random expressions and random rows, in each of the
// three row layouts the executor uses. Scan-level cases then pin the
// filter-before-materialize contract through the whole executor.

#include "analysis/compiled_expr.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/binder.h"
#include "analysis/eval.h"
#include "common/task_scheduler.h"
#include "exec/engine.h"
#include "sql/parser.h"
#include "storage/catalog_view.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

constexpr int kColumns = 4;

std::string ResultText(const Result<Value>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  return std::string(ValueTypeToString(r->type())) + " " + r->ToString();
}

std::string ResultText(const Result<bool>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  return *r ? "true" : "false";
}

/// Random bound expressions over t(c0..c3) and u(c0..c3), with random rows
/// of NULL / int64 / double / string / bool values. Small value domains
/// make equalities, zero divisors and LIKE matches common.
class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  Value RandomValue() {
    switch (Pick(6)) {
      case 0:
        return Value::Null();
      case 1:
      case 2:
        return Value(int64_t(Pick(7) - 3));
      case 3: {
        static const double kDoubles[] = {-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0};
        return Value(kDoubles[Pick(7)]);
      }
      case 4: {
        static const char* kStrings[] = {"", "a", "ab", "Ab", "b_", "abc"};
        return Value(kStrings[Pick(6)]);
      }
      default:
        return Value(Pick(2) == 0);
    }
  }

  Row RandomRow(size_t width) {
    Row row;
    for (size_t i = 0; i < width; ++i) row.push_back(RandomValue());
    return row;
  }

  /// `with_u`: column references may name u as well as t; `aggregates`:
  /// aggregate calls may appear (grouped context).
  ExprPtr RandomExpr(int depth, bool with_u, bool aggregates) {
    if (depth <= 0 || Pick(4) == 0) return Leaf(with_u);
    switch (Pick(aggregates ? 9 : 8)) {
      case 0: {
        static const char* kOps[] = {"and", "or"};
        return std::make_unique<BinaryExpr>(
            kOps[Pick(2)], RandomExpr(depth - 1, with_u, aggregates),
            RandomExpr(depth - 1, with_u, aggregates));
      }
      case 1: {
        static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
        return std::make_unique<BinaryExpr>(
            kOps[Pick(6)], RandomExpr(depth - 1, with_u, aggregates),
            RandomExpr(depth - 1, with_u, aggregates));
      }
      case 2: {
        static const char* kOps[] = {"+", "-", "*", "/", "%"};
        return std::make_unique<BinaryExpr>(
            kOps[Pick(5)], RandomExpr(depth - 1, with_u, aggregates),
            RandomExpr(depth - 1, with_u, aggregates));
      }
      case 3:
        return std::make_unique<UnaryExpr>(
            Pick(2) == 0 ? "not" : "-",
            RandomExpr(depth - 1, with_u, aggregates));
      case 4:
        return std::make_unique<IsNullExpr>(
            RandomExpr(depth - 1, with_u, aggregates), Pick(2) == 0);
      case 5: {
        std::vector<ExprPtr> items;
        int n = 1 + Pick(3);
        for (int i = 0; i < n; ++i) {
          items.push_back(Pick(3) == 0 ? RandomExpr(depth - 1, with_u,
                                                    aggregates)
                                       : Leaf(with_u));
        }
        return std::make_unique<InListExpr>(
            RandomExpr(depth - 1, with_u, aggregates), std::move(items),
            Pick(2) == 0);
      }
      case 6: {
        static const char* kPatterns[] = {"a%", "_b", "%", "ab", "%b%", ""};
        return std::make_unique<LikeExpr>(
            RandomExpr(depth - 1, with_u, aggregates), kPatterns[Pick(6)],
            Pick(2) == 0);
      }
      case 7: {
        static const char* kFuncs[] = {"lower", "upper", "length", "abs"};
        std::vector<ExprPtr> args;
        args.push_back(RandomExpr(depth - 1, with_u, aggregates));
        return std::make_unique<FuncCallExpr>(kFuncs[Pick(4)], false, false,
                                              std::move(args));
      }
      default: {
        static const char* kAggs[] = {"count", "sum", "min", "max", "avg"};
        std::vector<ExprPtr> args;
        args.push_back(Column(with_u));
        return std::make_unique<FuncCallExpr>(kAggs[Pick(5)], Pick(4) == 0,
                                              false, std::move(args));
      }
    }
  }

 private:
  ExprPtr Column(bool with_u) {
    std::string rel = with_u && Pick(2) == 0 ? "u" : "t";
    return std::make_unique<ColumnRefExpr>(rel,
                                           "c" + std::to_string(Pick(kColumns)));
  }

  ExprPtr Leaf(bool with_u) {
    if (Pick(2) == 0) return Column(with_u);
    return std::make_unique<LiteralExpr>(RandomValue());
  }

  std::mt19937_64 rng_;
};

class CompiledExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema schema;
    for (int c = 0; c < kColumns; ++c) {
      schema.AddColumn("c" + std::to_string(c), ValueType::kInt64);
    }
    ASSERT_TRUE(db_.CreateTable("t", schema).ok());
    ASSERT_TRUE(db_.CreateTable("u", schema).ok());
    catalog_ = std::make_unique<DatabaseCatalog>(&db_);
  }

  /// Binds `SELECT <expr> FROM t[, u]`; null when the binder rejects it.
  std::unique_ptr<BoundQuery> Bind(ExprPtr expr, bool with_u,
                                   std::unique_ptr<SelectStmt>* stmt_out) {
    auto stmt = std::make_unique<SelectStmt>();
    stmt->items.push_back(SelectItem{std::move(expr), ""});
    for (const char* name : {"t", "u"}) {
      if (!with_u && std::string(name) == "u") continue;
      TableRef ref;
      ref.table_name = name;
      stmt->from.push_back(std::move(ref));
    }
    Binder binder(catalog_.get());
    auto bound = binder.Bind(*stmt);
    if (!bound.ok()) return nullptr;
    *stmt_out = std::move(stmt);
    return std::move(bound).value();
  }

  Database db_;
  std::unique_ptr<DatabaseCatalog> catalog_;
};

// Joined-row layout, including grouped contexts with aggregate values: the
// program's value (through Evaluate and Ref) and its predicate truth
// (through EvaluatePredicate and Test) match Eval / EvalPredicate.
TEST_F(CompiledExprTest, MatchesEvalOnRandomExpressions) {
  Generator gen(20151031);
  size_t compared = 0, errors = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    bool aggregates = iter % 3 == 0;
    std::unique_ptr<SelectStmt> stmt;
    // Depths 1..4: shallow trees are the common filter shapes (`col OP
    // literal`), deep ones mix every kind.
    auto bq = Bind(gen.RandomExpr(1 + iter % 4, false, aggregates), false,
                   &stmt);
    if (bq == nullptr) continue;
    const Expr& expr = *stmt->items[0].expr;
    CompiledExpr prog = CompiledExpr::Compile(expr, *bq);

    std::unordered_map<const Expr*, Value> agg_map;
    std::vector<Value> agg_vec;
    bool grouped = !bq->aggregates.empty() && gen.Pick(4) != 0;
    if (grouped) {
      for (const FuncCallExpr* f : bq->aggregates) {
        agg_vec.push_back(gen.RandomValue());
        agg_map[f] = agg_vec.back();
      }
    }
    for (int r = 0; r < 6; ++r) {
      Row row = gen.RandomRow(bq->total_slots);
      EvalContext ctx{bq.get(), &row, grouped ? &agg_map : nullptr};
      ExprInput in{&row, nullptr, grouped ? &agg_vec : nullptr};

      Result<Value> want = Eval(expr, ctx);
      Result<Value> got = prog.Evaluate(in);
      ASSERT_EQ(ResultText(got), ResultText(want)) << expr.ToString();
      if (want.ok()) {
        ASSERT_TRUE(*got == *want) << expr.ToString();
      }
      errors += want.ok() ? 0 : 1;

      Value scratch;
      Status err;
      const Value* ref = prog.Ref(in, &scratch, &err);
      ASSERT_EQ(ref != nullptr, want.ok()) << expr.ToString();
      if (ref != nullptr) {
        ASSERT_EQ(ResultText(Result<Value>(*ref)), ResultText(want));
      } else {
        ASSERT_EQ(err.ToString(), want.status().ToString());
      }

      Result<bool> want_pred = EvalPredicate(expr, ctx);
      ASSERT_EQ(ResultText(prog.EvaluatePredicate(in)),
                ResultText(want_pred))
          << expr.ToString();
      bool keep = false;
      Status test_err;
      bool test_ok = prog.Test(in, &keep, &test_err);
      ASSERT_EQ(test_ok, want_pred.ok());
      if (test_ok) {
        ASSERT_EQ(keep, *want_pred);
      } else {
        ASSERT_EQ(test_err.ToString(), want_pred.status().ToString());
      }
      ++compared;
    }
  }
  // The generator must exercise both outcomes heavily.
  EXPECT_GT(compared, 20000u);
  EXPECT_GT(errors, compared / 20);
  EXPECT_LT(errors, compared * 9 / 10);
}

// The error and coercion cases byte-identical messages hinge on, spelled
// out so a regression names its case.
TEST_F(CompiledExprTest, MatchesEvalOnNamedErrorCases) {
  const char* cases[] = {
      "1 / 0",     "1 % 0",        "1.5 / 0.0",   "2 % 0.0",
      "'a' + 1",   "- 'a'",        "not 1",       "1 and true",
      "false and 1", "true or 1",  "null or 1",   "'a' like 'a%'",
      "1 like 'a'", "lower(1)",    "abs('x')",    "length(true)",
      "1 < 'a'",   "true = 1",     "1 in (1 / 0)", "null in (1 / 0)",
      "2 in ('a', 2)", "2 in (1, null)", "2 not in (1, null)",
      "(1 / 0) is null", "c0 + 1",  "c0 = 1.0",    "upper('aB')",
      // `column OP int literal`, both orientations (Test decides these
      // inline).
      "c0 < 2",    "c0 <= 2",      "c0 > 2",      "c0 >= 2",
      "c0 = 2",    "c0 != 2",      "2 < c0",      "2 <= c0",
      "2 > c0",    "2 >= c0",      "2 = c0",      "2 != c0",
      "c0 < 2.5",  "2.0 <= c0",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    Database db;
    Engine engine(&db);
    ASSERT_TRUE(engine.ExecuteSql("CREATE TABLE t (c0 INT)").ok());
    DatabaseCatalog catalog(&db);
    auto stmt_or = Parser::ParseSelect(std::string("SELECT ") + text +
                                       " FROM t");
    ASSERT_TRUE(stmt_or.ok()) << stmt_or.status().ToString();
    std::unique_ptr<SelectStmt> stmt = std::move(stmt_or).value();
    Binder binder(&catalog);
    auto bq = binder.Bind(*stmt);
    ASSERT_TRUE(bq.ok()) << bq.status().ToString();
    const Expr& expr = *stmt->items[0].expr;
    CompiledExpr prog = CompiledExpr::Compile(expr, **bq);
    for (Row row : {Row{Value(int64_t{1})}, Row{Value(int64_t{2})},
                    Row{Value(int64_t{3})}, Row{Value(2.0)},
                    Row{Value::Null()}, Row{Value("s")}}) {
      EvalContext ctx{bq->get(), &row, nullptr};
      ASSERT_EQ(ResultText(prog.Evaluate(ExprInput{&row})),
                ResultText(Eval(expr, ctx)));
      ASSERT_EQ(ResultText(prog.EvaluatePredicate(ExprInput{&row})),
                ResultText(EvalPredicate(expr, ctx)));
    }
  }
}

// Relation-local layout (scan filters): evaluated over t's stored row only
// — exactly t's width, so any read past it would fail — the program agrees
// with Eval over the joined row that holds t's values and NULL elsewhere.
TEST_F(CompiledExprTest, RelationProgramNeverReadsOutsideItsRelation) {
  Generator gen(4242);
  size_t compared = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::unique_ptr<SelectStmt> stmt;
    auto bq = Bind(gen.RandomExpr(1 + iter % 4, true, false), true, &stmt);
    if (bq == nullptr) continue;
    const Expr& expr = *stmt->items[0].expr;
    for (size_t rel : {size_t(0), size_t(1)}) {
      CompiledExpr prog = CompiledExpr::CompileForRelation(expr, *bq, rel);
      size_t offset = bq->slot_offsets[rel];
      for (int r = 0; r < 4; ++r) {
        Row stored = gen.RandomRow(kColumns);
        Row joined(bq->total_slots, Value::Null());
        for (int c = 0; c < kColumns; ++c) joined[offset + c] = stored[c];
        EvalContext ctx{bq.get(), &joined, nullptr};
        ASSERT_EQ(ResultText(prog.Evaluate(ExprInput{&stored})),
                  ResultText(Eval(expr, ctx)))
            << expr.ToString() << " rel " << rel;
        ASSERT_EQ(ResultText(prog.EvaluatePredicate(ExprInput{&stored})),
                  ResultText(EvalPredicate(expr, ctx)))
            << expr.ToString() << " rel " << rel;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

// Two-row layout (join residuals): u's slots come from the incoming row,
// t's from the left row; the answer matches Eval over the combined row.
TEST_F(CompiledExprTest, TwoRowProgramMatchesCombinedRow) {
  Generator gen(99);
  size_t compared = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::unique_ptr<SelectStmt> stmt;
    auto bq = Bind(gen.RandomExpr(1 + iter % 4, true, false), true, &stmt);
    if (bq == nullptr) continue;
    const Expr& expr = *stmt->items[0].expr;
    CompiledExpr prog = CompiledExpr::CompileTwoRows(expr, *bq, 1);
    size_t offset = bq->slot_offsets[1];
    for (int r = 0; r < 4; ++r) {
      Row combined = gen.RandomRow(bq->total_slots);
      Row left = combined;
      Row right(bq->total_slots, Value::Null());
      for (int c = 0; c < kColumns; ++c) {
        right[offset + c] = combined[offset + c];
        left[offset + c] = Value::Null();
      }
      EvalContext ctx{bq.get(), &combined, nullptr};
      ExprInput in{&left, &right};
      ASSERT_EQ(ResultText(prog.Evaluate(in)), ResultText(Eval(expr, ctx)))
          << expr.ToString();
      ASSERT_EQ(ResultText(prog.EvaluatePredicate(in)),
                ResultText(EvalPredicate(expr, ctx)))
          << expr.ToString();
      ++compared;
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST_F(CompiledExprTest, EmptyProgramIsAnError) {
  CompiledExpr empty;
  Row row;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Evaluate(ExprInput{&row}).status().code(),
            StatusCode::kInternal);
}

// Scan filters run on the stored row in WHERE order with the usual
// short-circuit: a later conjunct's run-time error surfaces only when some
// row passes the earlier ones — serially, under morsels, with the
// optimizer on or off, and on a subquery FROM item.
class ScanFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE r (a INT, b INT);
      INSERT INTO r VALUES (0, 1), (1, 2), (2, 3), (3, 4), (4, 5);
      CREATE TABLE s (x INT, tag TEXT);
      INSERT INTO s VALUES (1, 'one'), (2, 'two'), (0, 'zero');
    )sql")
                    .ok());
  }

  std::vector<ExecOptions> Configs() {
    std::vector<ExecOptions> configs;
    for (bool optimizer : {true, false}) {
      for (bool morsels : {false, true}) {
        ExecOptions options;
        options.enable_optimizer = optimizer;
        if (morsels) {
          options.scheduler = &scheduler_;
          options.morsel_size = 1;
        }
        configs.push_back(options);
      }
    }
    return configs;
  }

  /// Rows rendered one per line, or the error.
  std::string Run(const std::string& sql, const ExecOptions& options) {
    auto result = engine_->ExecuteSql(sql, options);
    if (!result.ok()) return "error " + result.status().ToString();
    std::string out;
    for (const Row& row : result->rows) out += RowToString(row) + "\n";
    return out;
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
  TaskScheduler scheduler_{2};
};

TEST_F(ScanFilterTest, LaterConjunctErrorsOnlyOnSurvivors) {
  for (const ExecOptions& options : Configs()) {
    SCOPED_TRACE(std::string("optimizer ") +
                 (options.enable_optimizer ? "on" : "off") +
                 (options.scheduler != nullptr ? ", morsels" : ", serial"));
    // a = 0 fails the first conjunct, so 12 / a never divides by zero.
    EXPECT_EQ(Run("SELECT a FROM r WHERE a > 0 AND 12 / a > 3", options),
              "(1)\n(2)\n(3)\n");
    // The same conjuncts in the other order reach the zero divisor.
    EXPECT_EQ(Run("SELECT a FROM r WHERE 12 / a > 3 AND a > 0", options),
              "error InvalidArgument: division by zero");
    // No row survives the first conjunct: the second never runs.
    EXPECT_EQ(Run("SELECT a FROM r WHERE a > 9 AND 12 / a > 3", options), "");
    // A type error deferred to the rows that reach it.
    EXPECT_EQ(Run("SELECT a FROM r WHERE a = 4 AND b + 'x' = 1", options),
              "error TypeError: arithmetic requires numeric operands, got "
              "INT64 and STRING");
    EXPECT_EQ(Run("SELECT a FROM r WHERE a = 7 AND b + 'x' = 1", options),
              "");
    // Filters over a subquery FROM item follow the same rule.
    EXPECT_EQ(Run("SELECT q.a FROM (SELECT a FROM r) q "
                  "WHERE q.a > 2 AND 12 / q.a > 3",
                  options),
              "(3)\n");
    EXPECT_EQ(Run("SELECT q.a FROM (SELECT a FROM r) q WHERE 12 / q.a > 3",
                  options),
              "error InvalidArgument: division by zero");
    // A scan filter below a join: s.x = 0 is dropped before 6 / s.x runs.
    EXPECT_EQ(Run("SELECT r.a, s.tag FROM r, s WHERE r.a = s.x "
                  "AND s.x > 0 AND 6 / s.x = 3",
                  options),
              "(2, 'two')\n");
    // Join residuals are tested on the row pair, errors included.
    EXPECT_EQ(Run("SELECT r.a, s.tag FROM r, s WHERE r.a > s.x "
                  "AND r.b / s.x = 5",
                  options),
              "error InvalidArgument: division by zero");
    EXPECT_EQ(Run("SELECT r.a, s.x FROM r, s WHERE r.a > s.x "
                  "AND s.x > 0 AND r.b / s.x = 2",
                  options),
              "(3, 2)\n(4, 2)\n");
  }
}

}  // namespace
}  // namespace datalawyer
