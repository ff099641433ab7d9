#ifndef DATALAWYER_EXEC_AGGREGATES_H_
#define DATALAWYER_EXEC_AGGREGATES_H_

#include <unordered_set>

#include "common/result.h"
#include "common/value.h"
#include "common/value_hash.h"
#include "sql/ast.h"

namespace datalawyer {

/// Streaming accumulator for one aggregate call site over one group.
/// Supports COUNT(*) / COUNT(x) / COUNT(DISTINCT x) / SUM / AVG / MIN / MAX
/// (DISTINCT variants for all). SQL NULL handling: NULL inputs are skipped
/// (except COUNT(*)); empty-group SUM/AVG/MIN/MAX yield NULL, COUNT yields 0.
class AggregateAccumulator {
 public:
  /// `spec` must outlive the accumulator.
  explicit AggregateAccumulator(const FuncCallExpr* spec)
      : spec_(spec), kind_(KindOf(spec->name)) {}

  /// Adds one input value (the evaluated argument). Not for COUNT(*).
  Status Add(const Value& v);

  /// Adds one row for COUNT(*).
  void AddStarRow() { ++count_; }

  /// Folds `other` — the partial state of a *later* contiguous input span
  /// for the same call site — into this accumulator. Returns true only
  /// when the merged state is provably byte-identical to a serial Add over
  /// the concatenated spans; returns false (leaving this accumulator
  /// unusable) when exactness cannot be guaranteed, and the caller must
  /// redo the aggregation serially. Declines: SUM/AVG that saw a double
  /// (float addition is not associative, so a partial-sum tree can differ
  /// from the serial left fold in the last bit), SUM/AVG DISTINCT (the
  /// dedup-adjusted serial addition order is unrecoverable from partial
  /// states), and integer SUM/AVG whose running sums may have exceeded
  /// 2^52 (the serial double shadow sum could have rounded). Exact merges:
  /// COUNT, COUNT(DISTINCT), MIN/MAX (ties keep this side — the earlier
  /// span, matching serial first-seen), and guarded integer SUM/AVG.
  bool MergeFrom(const AggregateAccumulator& other);

  /// Final value of the aggregate.
  Result<Value> Finish() const;

 private:
  /// The aggregate function, resolved from spec_->name once instead of per
  /// added row.
  enum class Kind { kCount, kSum, kAvg, kMin, kMax, kUnknown };
  static Kind KindOf(const std::string& name) {
    return name == "count" ? Kind::kCount
           : name == "sum" ? Kind::kSum
           : name == "avg" ? Kind::kAvg
           : name == "min" ? Kind::kMin
           : name == "max" ? Kind::kMax
                           : Kind::kUnknown;
  }

  const FuncCallExpr* spec_;
  Kind kind_;
  int64_t count_ = 0;
  double sum_double_ = 0.0;
  int64_t sum_int_ = 0;
  bool saw_double_ = false;
  bool saw_any_ = false;
  /// Sticky: some running |sum_int_| exceeded 2^52, so the double shadow
  /// sum may have rounded — integer-sum merges are no longer provably
  /// exact. Checked per Add, re-checked per merge.
  bool int_sum_risky_ = false;
  Value min_;
  Value max_;
  std::unordered_set<Value, ValueHash> distinct_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_EXEC_AGGREGATES_H_
