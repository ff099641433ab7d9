#ifndef DATALAWYER_ANALYSIS_COMPILED_EXPR_H_
#define DATALAWYER_ANALYSIS_COMPILED_EXPR_H_

#include <cstdint>
#include <vector>

#include "analysis/bound_query.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace datalawyer {

/// The rows (and group aggregates) one evaluation of a CompiledExpr reads.
struct ExprInput {
  const Row* row = nullptr;
  /// Second row of a two-row program (see CompiledExpr::CompileTwoRows);
  /// unused otherwise.
  const Row* alt = nullptr;
  /// The current group's aggregate values, indexed like
  /// BoundQuery::aggregates; null outside a group.
  const std::vector<Value>* aggs = nullptr;
};

/// A bound expression lowered once, at plan time, into a flat program: the
/// nodes live in one vector and name their children by index, column
/// references carry their resolved row position, operators are opcodes,
/// and operands are read by const reference from the row or the program's
/// constant pool. Int64 comparisons and arithmetic take a fast path; every
/// other case (mixed types, NULLs, strings, bools, division by zero) goes
/// through Value::Compare / Value::Arithmetic exactly as Eval does.
///
/// Contract: for every input, Evaluate returns the Value Eval returns, or
/// the same Status (code and message) — including errors Eval raises only
/// when a row reaches the failing node, and the order in which operands are
/// evaluated. Eval stays the reference implementation (and serves one-shot
/// evaluation); tests/compiled_expr_test.cc checks the agreement.
///
/// A program references the AST it was compiled from (error messages, LIKE
/// patterns, operator names), which must outlive it. Evaluation is const
/// and allocation-free on the fast paths, so morsel workers share one
/// program read-only.
class CompiledExpr {
 public:
  /// An empty program; evaluating one is an Internal error.
  CompiledExpr() = default;

  /// Lowers `expr` against the joined row laid out by `bq`'s slots.
  static CompiledExpr Compile(const Expr& expr, const BoundQuery& bq);

  /// Lowers `expr` against FROM item `rel_idx`'s own row (as stored, before
  /// it is widened into the joined layout): column c of the relation is
  /// read at position c. A reference to any other relation reads NULL —
  /// what the same slot holds in a joined row built from this relation
  /// alone — so the program never reads outside the relation's row.
  static CompiledExpr CompileForRelation(const Expr& expr,
                                         const BoundQuery& bq, size_t rel_idx);

  /// Lowers `expr` against two joined-layout rows: slots of FROM item
  /// `rel_idx` are read from ExprInput::alt, every other slot from
  /// ExprInput::row. A join residual then runs on the (left, incoming) pair
  /// without first copying them into one combined row.
  static CompiledExpr CompileTwoRows(const Expr& expr, const BoundQuery& bq,
                                     size_t rel_idx);

  bool empty() const { return nodes_.empty(); }

  /// The expression's value, or its error.
  Result<Value> Evaluate(const ExprInput& in) const;

  /// Hot-path value access: returns a pointer to the result — into the
  /// row or the constant pool when the program is a bare column or
  /// literal, else into *scratch — or nullptr with *err set.
  const Value* Ref(const ExprInput& in, Value* scratch, Status* err) const;

  /// SQL condition truth, as EvalPredicate: TRUE keeps, FALSE and NULL do
  /// not, anything else is a TypeError. Returns false with *err set on an
  /// error, true with *keep set otherwise. A `column OP int64-literal`
  /// program whose column holds an int64 is decided inline.
  bool Test(const ExprInput& in, bool* keep, Status* err) const {
    if (cmp_op_ != Op::kConst && in.row != nullptr &&
        cmp_slot_ < in.row->size()) {
      const Value& v = (*in.row)[cmp_slot_];
      if (v.is_int64()) {
        *keep = CompareInts(cmp_op_, v.AsInt64(), cmp_int_);
        return true;
      }
    }
    return TestTree(in, keep, err);
  }

  /// Convenience form of Test.
  Result<bool> EvaluatePredicate(const ExprInput& in) const;

 private:
  enum class Op : uint8_t {
    kConst,    ///< a = constant index
    kSlot,     ///< a = position in ExprInput::row
    kAltSlot,  ///< a = position in ExprInput::alt
    kAgg,      ///< a = aggregate index (kNoIndex: not a listed call site)
    kFail,     ///< a = index of the deferred Status
    kAnd,
    kOr,
    kNot,
    kNeg,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMod,
    kArith,  ///< any other binary operator: Value::Arithmetic decides
    kIsNull,
    kIsNotNull,
    kIn,  ///< a = operand, b/c = item range in lists_
    kNotIn,
    kLike,
    kNotLike,
    kLower,
    kUpper,
    kLength,
    kAbs,
  };

  /// Three-valued truth plus "some other value" (a non-boolean operand,
  /// which AND/OR/NOT and predicates turn into their own TypeErrors).
  enum class Truth : uint8_t { kFalse, kTrue, kNull, kOther, kError };

  struct Node {
    Op op = Op::kConst;
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    const Expr* src = nullptr;  ///< originating AST node
  };

  /// How column references resolve; see the Compile* entry points.
  struct Layout {
    enum Mode { kJoined, kRelation, kTwoRows } mode = kJoined;
    size_t offset = 0;
    size_t width = 0;
  };

  static CompiledExpr Lower(const Expr& expr, const BoundQuery& bq,
                            Layout layout);
  /// Recognizes a root `column OP int64-literal` (either side) for Test.
  void DetectIntComparison();
  bool TestTree(const ExprInput& in, bool* keep, Status* err) const;
  static bool CompareInts(Op op, int64_t a, int64_t b) {
    switch (op) {
      case Op::kEq:
        return a == b;
      case Op::kNe:
        return a != b;
      case Op::kLt:
        return a < b;
      case Op::kLe:
        return a <= b;
      case Op::kGt:
        return a > b;
      default:
        return a >= b;
    }
  }
  uint32_t LowerNode(const Expr& e, const BoundQuery& bq, const Layout& layout);
  uint32_t Add(Op op, const Expr* src, uint32_t a = 0, uint32_t b = 0,
               uint32_t c = 0);
  uint32_t AddConst(Value v, const Expr* src);
  uint32_t AddFail(Status st);

  const Value* RefNode(uint32_t n, const ExprInput& in, Value* tmp,
                       Status* err) const;
  bool ExecNode(uint32_t n, const ExprInput& in, Value* out,
                Status* err) const;
  Truth TestNode(uint32_t n, const ExprInput& in, Status* err) const;
  Truth CompareNode(const Node& node, const ExprInput& in, Status* err) const;
  static Truth CompareValues(Op op, const Value& l, const Value& r,
                             Status* err);
  Truth InListNode(const Node& node, const ExprInput& in, Status* err) const;

  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  std::vector<Value> consts_;
  std::vector<uint32_t> lists_;  ///< IN-list item nodes
  std::vector<Status> fails_;
  const Expr* expr_ = nullptr;  ///< the compiled expression
  /// Root `column OP int64-literal`, column normalized to the left:
  /// cmp_op_ is the comparison (kConst when the root has another shape).
  Op cmp_op_ = Op::kConst;
  uint32_t cmp_slot_ = 0;
  int64_t cmp_int_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_ANALYSIS_COMPILED_EXPR_H_
