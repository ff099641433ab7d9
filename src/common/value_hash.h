#ifndef DATALAWYER_COMMON_VALUE_HASH_H_
#define DATALAWYER_COMMON_VALUE_HASH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace datalawyer {

/// The one hash functor for single values, shared by every equality
/// container in the engine: the usage-log hash indexes (storage/table.h),
/// DISTINCT aggregate accumulators, and — through RowHash below — the
/// executor's hash joins, GROUP BY, and DISTINCT sets. Delegates to
/// Value::Hash(), whose contract makes int64 and double holding the same
/// number hash alike, so `1` staged by a log generator meets `1.0` computed
/// by an expression both in an index probe (SqlEqualRepresentations) and in
/// a join (SqlKeyEquals).
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// RowHash's seed and combining step, exposed so a key held outside a Row
/// (the hash join's flat key columns) hashes exactly like the Row would.
constexpr size_t kRowHashSeed = 0x345678;
inline size_t MixRowHash(size_t h, const Value& v) {
  return h * 1000003 ^ ValueHash()(v);
}

/// Hash functor for rows (hash-join keys, DISTINCT sets, GROUP BY keys).
/// Mixes the per-value ValueHash results; keeping the mixing here — next to
/// ValueHash — pins the invariant that a single-column row hashes
/// compatibly wherever value equality is decided.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = kRowHashSeed;
    for (const Value& v : row) h = MixRowHash(h, v);
    return h;
  }
};

/// SQL `=` between two join keys: Value::Compare's verdict (int64 pairs
/// exactly, other numeric pairs widened to double, strings and bools by
/// content), with NULLs and pairs Compare cannot relate counting as
/// unequal. Unlike Value::operator== it equates 1 and 1.0, and ValueHash
/// hashes such pairs alike. GROUP BY and DISTINCT keep structural equality.
inline bool SqlKeyEquals(const Value& a, const Value& b) {
  if (a.is_int64() && b.is_int64()) return a.AsInt64() == b.AsInt64();
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.ToDouble(), y = b.ToDouble();
    return !(x < y) && !(x > y);
  }
  if (a.is_string() && b.is_string()) return a.AsString() == b.AsString();
  if (a.is_bool() && b.is_bool()) return a.AsBool() == b.AsBool();
  return false;
}

/// The structurally distinct values SQL `=` equates with `v`, for probing
/// an index keyed by structural equality: `v` itself plus its other
/// numeric representation (int64 i <-> double i). NULL equals nothing
/// (empty set). Returns false when no small exact set exists — NaN, or an
/// integral double of magnitude >= 2^53, which several int64 values widen
/// to — so the caller scans instead.
inline bool SqlEqualRepresentations(const Value& v, std::vector<Value>* out) {
  out->clear();
  if (v.is_null()) return true;
  out->push_back(v);
  if (v.is_int64()) {
    out->push_back(Value(double(v.AsInt64())));
  } else if (v.is_double()) {
    double d = v.AsDouble();
    if (std::isnan(d)) return false;
    if (std::isfinite(d) && d == std::nearbyint(d)) {
      if (std::fabs(d) >= 9007199254740992.0) return false;  // 2^53
      out->push_back(Value(int64_t(d)));
    }
  }
  return true;
}

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_VALUE_HASH_H_
