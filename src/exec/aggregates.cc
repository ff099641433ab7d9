#include "exec/aggregates.h"

namespace datalawyer {

Status AggregateAccumulator::Add(const Value& v) {
  if (v.is_null()) return Status::OK();  // SQL: NULLs do not aggregate

  if (spec_->distinct) {
    if (!distinct_.insert(v).second) return Status::OK();
  }

  ++count_;
  if (kind_ == Kind::kSum || kind_ == Kind::kAvg) {
    if (!v.is_numeric()) {
      return Status::TypeError(spec_->name + " over non-numeric value " +
                               v.ToString());
    }
    if (v.is_double()) {
      saw_double_ = true;
      sum_double_ += v.AsDouble();
    } else {
      sum_int_ += v.AsInt64();
      sum_double_ += double(v.AsInt64());
      if (sum_int_ > (int64_t(1) << 52) || sum_int_ < -(int64_t(1) << 52)) {
        int_sum_risky_ = true;
      }
    }
  } else if (kind_ == Kind::kMin || kind_ == Kind::kMax) {
    if (!saw_any_) {
      min_ = v;
      max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (max_ < v) max_ = v;
    }
  }
  saw_any_ = true;
  return Status::OK();
}

bool AggregateAccumulator::MergeFrom(const AggregateAccumulator& other) {
  if (kind_ == Kind::kCount) {
    if (!spec_->distinct) {
      // COUNT(*) / COUNT(x): pure addition.
      count_ += other.count_;
      saw_any_ = saw_any_ || other.saw_any_;
      return true;
    }
    // COUNT(DISTINCT x): set union — order-independent by construction.
    for (const Value& v : other.distinct_) {
      if (distinct_.insert(v).second) ++count_;
    }
    saw_any_ = saw_any_ || other.saw_any_;
    return true;
  }
  if (kind_ == Kind::kMin || kind_ == Kind::kMax) {
    if (other.saw_any_) {
      if (!saw_any_) {
        min_ = other.min_;
        max_ = other.max_;
      } else {
        // Strict < keeps this side on ties: the earlier span's value wins,
        // exactly as serial first-seen would (1 vs 1.0 compare equal but
        // are distinct bytes, so the tie direction is observable).
        if (other.min_ < min_) min_ = other.min_;
        if (max_ < other.max_) max_ = other.max_;
      }
    }
    if (spec_->distinct) {
      for (const Value& v : other.distinct_) distinct_.insert(v);
      count_ = int64_t(distinct_.size());
    } else {
      count_ += other.count_;
    }
    saw_any_ = saw_any_ || other.saw_any_;
    return true;
  }
  if (kind_ == Kind::kSum || kind_ == Kind::kAvg) {
    if (spec_->distinct) return false;
    if (saw_double_ || other.saw_double_) return false;
    if (int_sum_risky_ || other.int_sum_risky_) return false;
    count_ += other.count_;
    sum_int_ += other.sum_int_;
    if (sum_int_ > (int64_t(1) << 52) || sum_int_ < -(int64_t(1) << 52)) {
      // The serial running sum through this span boundary would have
      // crossed the exactness threshold too.
      return false;
    }
    // Both spans' shadow sums are exact integers under 2^52, so their
    // float sum equals the serial left fold exactly.
    sum_double_ += other.sum_double_;
    saw_any_ = saw_any_ || other.saw_any_;
    return true;
  }
  return false;  // unknown aggregate: let the serial path report it
}

Result<Value> AggregateAccumulator::Finish() const {
  if (kind_ == Kind::kCount) return Value(count_);
  if (!saw_any_) return Value::Null();
  switch (kind_) {
    case Kind::kSum:
      return saw_double_ ? Value(sum_double_) : Value(sum_int_);
    case Kind::kAvg:
      return Value(sum_double_ / double(count_));
    case Kind::kMin:
      return min_;
    case Kind::kMax:
      return max_;
    default:
      return Status::Unsupported("unknown aggregate: " + spec_->name);
  }
}

}  // namespace datalawyer
