#include "analysis/compiled_expr.h"

#include <cctype>
#include <limits>

#include "analysis/eval.h"

namespace datalawyer {

namespace {

constexpr uint32_t kNoIndex = std::numeric_limits<uint32_t>::max();

// Operator spellings the fallbacks hand to Value::Compare/Arithmetic, in
// opcode order (kEq..kGe, kAdd..kMod).
const std::string kCompareNames[] = {"=", "!=", "<", "<=", ">", ">="};
const std::string kArithNames[] = {"+", "-", "*", "/", "%"};

}  // namespace

CompiledExpr CompiledExpr::Compile(const Expr& expr, const BoundQuery& bq) {
  return Lower(expr, bq, Layout{});
}

CompiledExpr CompiledExpr::CompileForRelation(const Expr& expr,
                                              const BoundQuery& bq,
                                              size_t rel_idx) {
  return Lower(expr, bq,
               Layout{Layout::kRelation, bq.slot_offsets[rel_idx],
                      bq.relations[rel_idx].schema.NumColumns()});
}

CompiledExpr CompiledExpr::CompileTwoRows(const Expr& expr,
                                          const BoundQuery& bq,
                                          size_t rel_idx) {
  return Lower(expr, bq,
               Layout{Layout::kTwoRows, bq.slot_offsets[rel_idx],
                      bq.relations[rel_idx].schema.NumColumns()});
}

CompiledExpr CompiledExpr::Lower(const Expr& expr, const BoundQuery& bq,
                                 Layout layout) {
  CompiledExpr prog;
  prog.expr_ = &expr;
  prog.root_ = prog.LowerNode(expr, bq, layout);
  prog.DetectIntComparison();
  return prog;
}

void CompiledExpr::DetectIntComparison() {
  const Node& root = nodes_[root_];
  if (root.op < Op::kEq || root.op > Op::kGe) return;
  const Node& l = nodes_[root.a];
  const Node& r = nodes_[root.b];
  Op op = root.op;
  const Node* column = &l;
  const Node* literal = &r;
  if (l.op == Op::kConst && r.op == Op::kSlot) {
    // `literal OP column` is `column OP' literal` with the mirrored OP.
    column = &r;
    literal = &l;
    switch (op) {
      case Op::kLt:
        op = Op::kGt;
        break;
      case Op::kLe:
        op = Op::kGe;
        break;
      case Op::kGt:
        op = Op::kLt;
        break;
      case Op::kGe:
        op = Op::kLe;
        break;
      default:
        break;
    }
  }
  if (column->op != Op::kSlot || literal->op != Op::kConst) return;
  const Value& c = consts_[literal->a];
  if (!c.is_int64()) return;
  cmp_op_ = op;
  cmp_slot_ = column->a;
  cmp_int_ = c.AsInt64();
}

uint32_t CompiledExpr::Add(Op op, const Expr* src, uint32_t a, uint32_t b,
                           uint32_t c) {
  nodes_.push_back(Node{op, a, b, c, src});
  return uint32_t(nodes_.size() - 1);
}

uint32_t CompiledExpr::AddConst(Value v, const Expr* src) {
  consts_.push_back(std::move(v));
  return Add(Op::kConst, src, uint32_t(consts_.size() - 1));
}

uint32_t CompiledExpr::AddFail(Status st) {
  fails_.push_back(std::move(st));
  return Add(Op::kFail, nullptr, uint32_t(fails_.size() - 1));
}

uint32_t CompiledExpr::LowerNode(const Expr& e, const BoundQuery& bq,
                                 const Layout& layout) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return AddConst(static_cast<const LiteralExpr&>(e).value, &e);
    case ExprKind::kColumnRef: {
      auto it = bq.column_slots.find(&e);
      if (it == bq.column_slots.end()) {
        return AddFail(Status::Internal("unbound column reference: " +
                                        e.ToString()));
      }
      size_t slot = it->second;
      bool in_rel = slot >= layout.offset && slot < layout.offset + layout.width;
      switch (layout.mode) {
        case Layout::kJoined:
          return Add(Op::kSlot, &e, uint32_t(slot));
        case Layout::kRelation:
          if (in_rel) return Add(Op::kSlot, &e, uint32_t(slot - layout.offset));
          if (slot < bq.total_slots) return AddConst(Value::Null(), &e);
          return AddFail(Status::Internal("evaluation row too narrow for " +
                                          e.ToString()));
        case Layout::kTwoRows:
          return Add(in_rel ? Op::kAltSlot : Op::kSlot, &e, uint32_t(slot));
      }
      return AddFail(Status::Internal("unknown slot layout"));
    }
    case ExprKind::kStar:
      return AddFail(Status::InvalidArgument("'*' is not a value expression"));
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      Op op = Op::kArith;
      if (b.op == "and") {
        op = Op::kAnd;
      } else if (b.op == "or") {
        op = Op::kOr;
      } else if (b.op == "=") {
        op = Op::kEq;
      } else if (b.op == "!=") {
        op = Op::kNe;
      } else if (b.op == "<") {
        op = Op::kLt;
      } else if (b.op == "<=") {
        op = Op::kLe;
      } else if (b.op == ">") {
        op = Op::kGt;
      } else if (b.op == ">=") {
        op = Op::kGe;
      } else if (b.op == "+") {
        op = Op::kAdd;
      } else if (b.op == "-") {
        op = Op::kSub;
      } else if (b.op == "*") {
        op = Op::kMul;
      } else if (b.op == "/") {
        op = Op::kDiv;
      } else if (b.op == "%") {
        op = Op::kMod;
      }
      uint32_t lhs = LowerNode(*b.lhs, bq, layout);
      uint32_t rhs = LowerNode(*b.rhs, bq, layout);
      return Add(op, &e, lhs, rhs);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      uint32_t operand = LowerNode(*u.operand, bq, layout);
      return Add(u.op == "not" ? Op::kNot : Op::kNeg, &e, operand);
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(e);
      uint32_t operand = LowerNode(*n.operand, bq, layout);
      return Add(n.negated ? Op::kIsNotNull : Op::kIsNull, &e, operand);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      uint32_t operand = LowerNode(*in.operand, bq, layout);
      // Items may nest IN lists of their own: lower them all first, then
      // append this list's item range contiguously.
      std::vector<uint32_t> items;
      items.reserve(in.items.size());
      for (const ExprPtr& item : in.items) {
        items.push_back(LowerNode(*item, bq, layout));
      }
      uint32_t begin = uint32_t(lists_.size());
      lists_.insert(lists_.end(), items.begin(), items.end());
      return Add(in.negated ? Op::kNotIn : Op::kIn, &e, operand, begin,
                 uint32_t(lists_.size()));
    }
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(e);
      uint32_t operand = LowerNode(*like.operand, bq, layout);
      return Add(like.negated ? Op::kNotLike : Op::kLike, &e, operand);
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      if (f.IsAggregate()) {
        uint32_t index = kNoIndex;
        for (size_t i = 0; i < bq.aggregates.size(); ++i) {
          if (bq.aggregates[i] == &f) index = uint32_t(i);
        }
        return Add(Op::kAgg, &e, index);
      }
      Op op;
      if (f.name == "lower") {
        op = Op::kLower;
      } else if (f.name == "upper") {
        op = Op::kUpper;
      } else if (f.name == "length") {
        op = Op::kLength;
      } else if (f.name == "abs") {
        op = Op::kAbs;
      } else {
        return AddFail(Status::Unsupported("unknown function: " + f.name));
      }
      if (f.args.empty() || f.args[0] == nullptr) {
        return AddFail(
            Status::Internal("function without an argument: " + f.name));
      }
      uint32_t arg = LowerNode(*f.args[0], bq, layout);
      return Add(op, &e, arg);
    }
  }
  return AddFail(Status::Internal("unhandled expression kind"));
}

const Value* CompiledExpr::RefNode(uint32_t n, const ExprInput& in, Value* tmp,
                                   Status* err) const {
  const Node& node = nodes_[n];
  switch (node.op) {
    case Op::kConst:
      return &consts_[node.a];
    case Op::kSlot:
    case Op::kAltSlot: {
      const Row* row = node.op == Op::kSlot ? in.row : in.alt;
      if (row == nullptr || node.a >= row->size()) {
        *err = Status::Internal("evaluation row too narrow for " +
                                node.src->ToString());
        return nullptr;
      }
      return &(*row)[node.a];
    }
    case Op::kAgg:
      if (in.aggs == nullptr) {
        *err = Status::Internal("aggregate evaluated outside a group: " +
                                node.src->ToString());
        return nullptr;
      }
      if (node.a >= in.aggs->size()) {
        *err = Status::Internal("aggregate value missing for " +
                                node.src->ToString());
        return nullptr;
      }
      return &(*in.aggs)[node.a];
    default:
      return ExecNode(n, in, tmp, err) ? tmp : nullptr;
  }
}

bool CompiledExpr::ExecNode(uint32_t n, const ExprInput& in, Value* out,
                            Status* err) const {
  const Node& node = nodes_[n];
  switch (node.op) {
    case Op::kConst:
    case Op::kSlot:
    case Op::kAltSlot:
    case Op::kAgg: {
      const Value* v = RefNode(n, in, out, err);
      if (v == nullptr) return false;
      *out = *v;
      return true;
    }
    case Op::kFail:
      *err = fails_[node.a];
      return false;
    case Op::kAnd:
    case Op::kOr:
    case Op::kNot:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kIsNull:
    case Op::kIsNotNull:
    case Op::kIn:
    case Op::kNotIn:
    case Op::kLike:
    case Op::kNotLike:
      switch (TestNode(n, in, err)) {
        case Truth::kFalse:
          *out = Value(false);
          return true;
        case Truth::kTrue:
          *out = Value(true);
          return true;
        case Truth::kNull:
          *out = Value::Null();
          return true;
        case Truth::kOther:
          *err = Status::Internal("boolean operator produced a non-boolean");
          return false;
        case Truth::kError:
          return false;
      }
      return false;
    case Op::kNeg: {
      Value t;
      const Value* v = RefNode(node.a, in, &t, err);
      if (v == nullptr) return false;
      if (v->is_null()) {
        *out = Value::Null();
      } else if (v->is_int64()) {
        *out = Value(-v->AsInt64());
      } else if (v->is_double()) {
        *out = Value(-v->AsDouble());
      } else {
        *err = Status::TypeError("unary '-' over non-numeric value");
        return false;
      }
      return true;
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kArith: {
      Value lt, rt;
      const Value* l = RefNode(node.a, in, &lt, err);
      if (l == nullptr) return false;
      const Value* r = RefNode(node.b, in, &rt, err);
      if (r == nullptr) return false;
      if (l->is_int64() && r->is_int64()) {
        int64_t a = l->AsInt64(), b = r->AsInt64();
        switch (node.op) {
          case Op::kAdd:
            *out = Value(a + b);
            return true;
          case Op::kSub:
            *out = Value(a - b);
            return true;
          case Op::kMul:
            *out = Value(a * b);
            return true;
          case Op::kDiv:
            if (b == 0) break;  // the fallback raises the error
            *out = Value(a / b);
            return true;
          case Op::kMod:
            if (b == 0) break;
            *out = Value(a % b);
            return true;
          default:
            break;
        }
      }
      const std::string& name =
          node.op == Op::kArith
              ? static_cast<const BinaryExpr*>(node.src)->op
              : kArithNames[int(node.op) - int(Op::kAdd)];
      Result<Value> v = Value::Arithmetic(*l, name, *r);
      if (!v.ok()) {
        *err = v.status();
        return false;
      }
      *out = std::move(v).value();
      return true;
    }
    case Op::kLower:
    case Op::kUpper:
    case Op::kLength:
    case Op::kAbs: {
      Value t;
      const Value* v = RefNode(node.a, in, &t, err);
      if (v == nullptr) return false;
      if (v->is_null()) {
        *out = Value::Null();
        return true;
      }
      if (node.op == Op::kAbs) {
        if (v->is_int64()) {
          int64_t x = v->AsInt64();
          *out = Value(x < 0 ? -x : x);
        } else if (v->is_double()) {
          double x = v->AsDouble();
          *out = Value(x < 0 ? -x : x);
        } else {
          *err = Status::TypeError("abs over non-numeric value");
          return false;
        }
        return true;
      }
      if (!v->is_string()) {
        *err = Status::TypeError(
            static_cast<const FuncCallExpr*>(node.src)->name +
            " over non-string value " + v->ToString());
        return false;
      }
      if (node.op == Op::kLength) {
        *out = Value(int64_t(v->AsString().size()));
        return true;
      }
      std::string s = v->AsString();
      for (char& ch : s) {
        ch = node.op == Op::kLower
                 ? char(std::tolower(static_cast<unsigned char>(ch)))
                 : char(std::toupper(static_cast<unsigned char>(ch)));
      }
      *out = Value(std::move(s));
      return true;
    }
  }
  *err = Status::Internal("unhandled opcode");
  return false;
}

CompiledExpr::Truth CompiledExpr::CompareNode(const Node& node,
                                              const ExprInput& in,
                                              Status* err) const {
  Value lt, rt;
  const Value* l = RefNode(node.a, in, &lt, err);
  if (l == nullptr) return Truth::kError;
  const Value* r = RefNode(node.b, in, &rt, err);
  if (r == nullptr) return Truth::kError;
  return CompareValues(node.op, *l, *r, err);
}

CompiledExpr::Truth CompiledExpr::CompareValues(Op op, const Value& l,
                                                const Value& r,
                                                Status* err) {
  if (l.is_int64() && r.is_int64()) {
    return CompareInts(op, l.AsInt64(), r.AsInt64()) ? Truth::kTrue
                                                     : Truth::kFalse;
  }
  Result<Value> v = Value::Compare(l, kCompareNames[int(op) - int(Op::kEq)], r);
  if (!v.ok()) {
    *err = v.status();
    return Truth::kError;
  }
  if (v->is_null()) return Truth::kNull;
  return v->AsBool() ? Truth::kTrue : Truth::kFalse;
}

CompiledExpr::Truth CompiledExpr::InListNode(const Node& node,
                                             const ExprInput& in,
                                             Status* err) const {
  // x IN (a, b) ≡ x = a OR x = b under three-valued logic; items after the
  // first match are not evaluated (Eval stops there too).
  bool negated = node.op == Op::kNotIn;
  Value ot;
  const Value* operand = RefNode(node.a, in, &ot, err);
  if (operand == nullptr) return Truth::kError;
  if (operand->is_null()) return Truth::kNull;
  bool saw_null = false;
  for (uint32_t k = node.b; k < node.c; ++k) {
    Value it;
    const Value* v = RefNode(lists_[k], in, &it, err);
    if (v == nullptr) return Truth::kError;
    Truth eq = CompareValues(Op::kEq, *operand, *v, err);
    if (eq == Truth::kError) return eq;
    if (eq == Truth::kNull) saw_null = true;
    if (eq == Truth::kTrue) return negated ? Truth::kFalse : Truth::kTrue;
  }
  if (saw_null) return Truth::kNull;
  return negated ? Truth::kTrue : Truth::kFalse;
}

CompiledExpr::Truth CompiledExpr::TestNode(uint32_t n, const ExprInput& in,
                                           Status* err) const {
  const Node& node = nodes_[n];
  switch (node.op) {
    case Op::kAnd:
    case Op::kOr: {
      // Three-valued AND/OR with Eval's short-circuit and error order: the
      // deciding left value skips the right side; otherwise both sides are
      // evaluated before either is type-checked.
      bool is_and = node.op == Op::kAnd;
      Truth l = TestNode(node.a, in, err);
      if (l == Truth::kError) return l;
      if (l == (is_and ? Truth::kFalse : Truth::kTrue)) return l;
      Truth r = TestNode(node.b, in, err);
      if (r == Truth::kError) return r;
      if (l == Truth::kOther || r == Truth::kOther) {
        *err = Status::TypeError("boolean operator over non-boolean value");
        return Truth::kError;
      }
      if (r == (is_and ? Truth::kFalse : Truth::kTrue)) return r;
      if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
      return is_and ? Truth::kTrue : Truth::kFalse;
    }
    case Op::kNot: {
      Truth t = TestNode(node.a, in, err);
      switch (t) {
        case Truth::kTrue:
          return Truth::kFalse;
        case Truth::kFalse:
          return Truth::kTrue;
        case Truth::kOther:
          *err = Status::TypeError("NOT over non-boolean");
          return Truth::kError;
        default:
          return t;
      }
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      return CompareNode(node, in, err);
    case Op::kIsNull:
    case Op::kIsNotNull: {
      Value t;
      const Value* v = RefNode(node.a, in, &t, err);
      if (v == nullptr) return Truth::kError;
      return v->is_null() == (node.op == Op::kIsNull) ? Truth::kTrue
                                                       : Truth::kFalse;
    }
    case Op::kIn:
    case Op::kNotIn:
      return InListNode(node, in, err);
    case Op::kLike:
    case Op::kNotLike: {
      Value t;
      const Value* v = RefNode(node.a, in, &t, err);
      if (v == nullptr) return Truth::kError;
      if (v->is_null()) return Truth::kNull;
      if (!v->is_string()) {
        *err = Status::TypeError("LIKE requires a string operand, got " +
                                 v->ToString());
        return Truth::kError;
      }
      bool matched = LikeMatch(v->AsString(),
                               static_cast<const LikeExpr*>(node.src)->pattern);
      return matched != (node.op == Op::kNotLike) ? Truth::kTrue
                                                   : Truth::kFalse;
    }
    default: {
      Value t;
      const Value* v = RefNode(n, in, &t, err);
      if (v == nullptr) return Truth::kError;
      if (v->is_bool()) return v->AsBool() ? Truth::kTrue : Truth::kFalse;
      return v->is_null() ? Truth::kNull : Truth::kOther;
    }
  }
}

Result<Value> CompiledExpr::Evaluate(const ExprInput& in) const {
  if (empty()) return Status::Internal("evaluated an empty expression program");
  Value out;
  Status err;
  if (!ExecNode(root_, in, &out, &err)) return err;
  return out;
}

const Value* CompiledExpr::Ref(const ExprInput& in, Value* scratch,
                               Status* err) const {
  if (empty()) {
    *err = Status::Internal("evaluated an empty expression program");
    return nullptr;
  }
  return RefNode(root_, in, scratch, err);
}

bool CompiledExpr::TestTree(const ExprInput& in, bool* keep,
                            Status* err) const {
  if (empty()) {
    *err = Status::Internal("evaluated an empty expression program");
    return false;
  }
  switch (TestNode(root_, in, err)) {
    case Truth::kTrue:
      *keep = true;
      return true;
    case Truth::kFalse:
    case Truth::kNull:
      *keep = false;
      return true;
    case Truth::kOther:
      *err = Status::TypeError("predicate did not evaluate to a boolean: " +
                               expr_->ToString());
      return false;
    case Truth::kError:
      return false;
  }
  return false;
}

Result<bool> CompiledExpr::EvaluatePredicate(const ExprInput& in) const {
  bool keep = false;
  Status err;
  if (!Test(in, &keep, &err)) return err;
  return keep;
}

}  // namespace datalawyer
