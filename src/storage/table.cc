#include "storage/table.h"

#include <algorithm>
#include <cmath>

namespace datalawyer {

namespace {

/// Strict weak order matching Value::Compare over a homogeneous column
/// class: int64 pairs compare exactly, mixed numerics widen to double,
/// strings compare lexicographically. Only called for values the index
/// already vetted as one class.
bool OrderedLess(const Value& a, const Value& b) {
  if (a.is_int64() && b.is_int64()) return a.AsInt64() < b.AsInt64();
  if (a.is_numeric() && b.is_numeric()) return a.ToDouble() < b.ToDouble();
  return a.AsString() < b.AsString();
}

/// Classifies a non-NULL value for ordered indexing: 1 = finite numeric,
/// 2 = string, 0 = not orderable (bool, non-finite double).
int OrderedClassOf(const Value& v) {
  if (v.is_numeric()) {
    return std::isfinite(v.ToDouble()) ? 1 : 0;
  }
  return v.is_string() ? 2 : 0;
}

}  // namespace

Status Table::BuildIndex(const std::string& column) {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column " + column + " to index");
  }
  // Replace any previous index on this column.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].column == *col) {
      indexes_.erase(indexes_.begin() + i);
      break;
    }
  }
  HashIndex index;
  index.column = *col;
  index.built_at_version = version_;
  index.positions.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    index.positions[rows_[i][*col]].push_back(i);
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

void Table::RefreshIndexes() {
  for (HashIndex& index : indexes_) {
    if (index.built_at_version == version_) continue;
    index.positions.clear();
    index.positions.reserve(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) {
      index.positions[rows_[i][index.column]].push_back(i);
    }
    index.built_at_version = version_;
  }
  for (OrderedIndex& index : ordered_indexes_) {
    if (index.built_at_version == version_) continue;
    RebuildOrderedIndex(&index);
  }
  if (stats_enabled_ && stats_built_at_version_ != version_) {
    RebuildStats();
  }
}

Status Table::BuildOrderedIndex(const std::string& column) {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column " + column + " to index");
  }
  for (size_t i = 0; i < ordered_indexes_.size(); ++i) {
    if (ordered_indexes_[i].column == *col) {
      ordered_indexes_.erase(ordered_indexes_.begin() + i);
      break;
    }
  }
  OrderedIndex index;
  index.column = *col;
  RebuildOrderedIndex(&index);
  ordered_indexes_.push_back(std::move(index));
  return Status::OK();
}

void Table::RebuildOrderedIndex(OrderedIndex* index) {
  index->sorted.clear();
  index->indexed_rows = rows_.size();
  index->built_at_version = version_;
  index->usable = true;
  index->value_class = 0;
  index->sorted.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Value& v = rows_[i][index->column];
    if (v.is_null()) continue;
    int cls = OrderedClassOf(v);
    if (cls == 0 || (index->value_class != 0 && cls != index->value_class)) {
      index->usable = false;
      index->sorted.clear();
      return;
    }
    index->value_class = cls;
    index->sorted.emplace_back(v, i);
  }
  std::sort(index->sorted.begin(), index->sorted.end(),
            [](const std::pair<Value, size_t>& a,
               const std::pair<Value, size_t>& b) {
              return OrderedLess(a.first, b.first);
            });
}

bool Table::HasValidOrderedIndex(size_t col) const {
  for (const OrderedIndex& index : ordered_indexes_) {
    if (index.column == col && index.built_at_version == version_ &&
        index.usable) {
      return true;
    }
  }
  return false;
}

bool Table::RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                        const Value* hi, bool hi_inclusive,
                        std::vector<size_t>* out) const {
  const OrderedIndex* index = nullptr;
  for (const OrderedIndex& oi : ordered_indexes_) {
    if (oi.column == col && oi.built_at_version == version_) {
      index = &oi;
      break;
    }
  }
  if (index == nullptr || !index->usable) return false;
  if (lo == nullptr && hi == nullptr) return false;
  // SQL comparisons against NULL never hold: an index answer of "no rows"
  // is exact (the re-applied filter would reject every row anyway).
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    out->clear();
    return true;
  }
  // A bound whose class differs from the column's would need Value::Compare
  // semantics the index cannot reproduce (TypeError); fall back to a scan
  // so errors surface exactly as the naive path raises them. After this
  // loop cls_required is the one class every compared value must share.
  int cls_required = index->value_class;
  for (const Value* bound : {lo, hi}) {
    if (bound == nullptr) continue;
    int cls = OrderedClassOf(*bound);
    if (cls == 0 || (cls_required != 0 && cls != cls_required)) {
      return false;
    }
    cls_required = cls;
  }

  std::vector<size_t> hits;
  auto less_value = [](const std::pair<Value, size_t>& entry, const Value& v) {
    return OrderedLess(entry.first, v);
  };
  auto value_less = [](const Value& v, const std::pair<Value, size_t>& entry) {
    return OrderedLess(v, entry.first);
  };
  auto begin = index->sorted.begin();
  auto end = index->sorted.end();
  if (lo != nullptr) {
    begin = lo_inclusive
                ? std::lower_bound(begin, end, *lo, less_value)
                : std::upper_bound(begin, end, *lo, value_less);
  }
  if (hi != nullptr) {
    end = hi_inclusive ? std::upper_bound(begin, end, *hi, value_less)
                       : std::lower_bound(begin, end, *hi, less_value);
  }
  for (auto it = begin; it != end; ++it) hits.push_back(it->second);

  // Tail: rows appended since the last merge, scanned linearly. A tail
  // value outside the column's class means the comparison semantics are no
  // longer the index's — bail out to a full scan before emitting anything.
  auto in_range = [&](const Value& v) {
    if (lo != nullptr) {
      if (OrderedLess(v, *lo)) return false;
      if (!lo_inclusive && !OrderedLess(*lo, v)) return false;
    }
    if (hi != nullptr) {
      if (OrderedLess(*hi, v)) return false;
      if (!hi_inclusive && !OrderedLess(v, *hi)) return false;
    }
    return true;
  };
  for (size_t i = index->indexed_rows; i < rows_.size(); ++i) {
    const Value& v = rows_[i][col];
    if (v.is_null()) continue;
    if (OrderedClassOf(v) != cls_required) return false;
    if (in_range(v)) hits.push_back(i);
  }
  std::sort(hits.begin(), hits.end());
  out->insert(out->end(), hits.begin(), hits.end());
  return true;
}

bool Table::HasValidIndex(size_t col) const {
  for (const HashIndex& index : indexes_) {
    if (index.column == col && index.built_at_version == version_) return true;
  }
  return false;
}

bool Table::IndexLookup(size_t col, const Value& v,
                        std::vector<size_t>* out) const {
  for (const HashIndex& index : indexes_) {
    if (index.column == col && index.built_at_version == version_) {
      // The index is keyed structurally; SQL `=` also equates int64 and
      // double holding the same number, so probe every representation.
      std::vector<Value> keys;
      if (!SqlEqualRepresentations(v, &keys)) return false;
      size_t start = out->size();
      int lists = 0;  // each position list is ascending on its own
      for (const Value& key : keys) {
        auto it = index.positions.find(key);
        if (it != index.positions.end()) {
          out->insert(out->end(), it->second.begin(), it->second.end());
          ++lists;
        }
      }
      if (lists > 1) std::sort(out->begin() + start, out->end());
      return true;
    }
  }
  return false;
}

Result<int64_t> Table::Append(Row row) {
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema (" +
        std::to_string(schema_.NumColumns()) + " columns)");
  }
  int64_t id = next_row_id_++;
  size_t pos = rows_.size();
  rows_.push_back(std::move(row));
  row_ids_.push_back(id);
  // Appends maintain current indexes in place; already-stale indexes stay
  // stale until RefreshIndexes/BuildIndex.
  for (HashIndex& index : indexes_) {
    if (index.built_at_version == version_) {
      index.positions[rows_[pos][index.column]].push_back(pos);
    }
  }
  // Ordered indexes absorb appends into an implicit tail (rows past
  // indexed_rows, scanned linearly by RangeLookup); once the tail grows
  // past the threshold it is sorted and merged into the run — amortized
  // O(log n) per append, and probes stay O(log n + tail).
  for (OrderedIndex& index : ordered_indexes_) {
    if (index.built_at_version != version_ || !index.usable) continue;
    if (rows_.size() - index.indexed_rows < kOrderedTailMergeThreshold) {
      continue;
    }
    size_t run = index.sorted.size();
    for (size_t i = index.indexed_rows; i < rows_.size(); ++i) {
      const Value& v = rows_[i][index.column];
      if (v.is_null()) continue;
      int cls = OrderedClassOf(v);
      if (cls == 0 || (index.value_class != 0 && cls != index.value_class)) {
        index.usable = false;
        index.sorted.clear();
        break;
      }
      index.value_class = cls;
      index.sorted.emplace_back(v, i);
    }
    if (!index.usable) continue;
    auto cmp = [](const std::pair<Value, size_t>& a,
                  const std::pair<Value, size_t>& b) {
      return OrderedLess(a.first, b.first);
    };
    std::sort(index.sorted.begin() + run, index.sorted.end(), cmp);
    std::inplace_merge(index.sorted.begin(), index.sorted.begin() + run,
                       index.sorted.end(), cmp);
    index.indexed_rows = rows_.size();
  }
  if (stats_enabled_ && stats_built_at_version_ == version_) {
    FoldRowIntoStats(rows_[pos]);
  }
  return id;
}

void Table::EnableStats() {
  stats_enabled_ = true;
  RebuildStats();
}

void Table::DisableStats() {
  stats_enabled_ = false;
  stats_ = TableStats{};
  stats_distinct_.clear();
  stats_range_ok_.clear();
}

void Table::RebuildStats() {
  stats_ = TableStats{};
  stats_.valid = true;
  stats_.columns.resize(schema_.NumColumns());
  stats_distinct_.assign(schema_.NumColumns(), {});
  stats_range_ok_.assign(schema_.NumColumns(), true);
  for (const Row& row : rows_) FoldRowIntoStats(row);
  stats_built_at_version_ = version_;
}

void Table::FoldRowIntoStats(const Row& row) {
  ++stats_.row_count;
  for (size_t c = 0; c < stats_.columns.size() && c < row.size(); ++c) {
    const Value& v = row[c];
    ColumnStats& cs = stats_.columns[c];
    if (v.is_null()) {
      ++cs.null_count;
      continue;
    }
    stats_distinct_[c].insert(v);
    cs.ndv = stats_distinct_[c].size();
    if (!v.is_numeric() || !std::isfinite(v.ToDouble())) {
      stats_range_ok_[c] = false;
      cs.has_range = false;
      continue;
    }
    if (!stats_range_ok_[c]) continue;
    double d = v.ToDouble();
    if (!cs.has_range) {
      cs.has_range = true;
      cs.min = cs.max = d;
    } else {
      cs.min = std::min(cs.min, d);
      cs.max = std::max(cs.max, d);
    }
  }
}

Status Table::AppendAll(std::vector<Row> rows) {
  for (Row& row : rows) {
    DL_RETURN_NOT_OK(Append(std::move(row)).status());
  }
  return Status::OK();
}

size_t Table::RetainOnly(const std::unordered_set<int64_t>& keep) {
  size_t out = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (keep.count(row_ids_[i])) {
      if (out != i) {
        rows_[out] = std::move(rows_[i]);
        row_ids_[out] = row_ids_[i];
      }
      ++out;
    }
  }
  size_t removed = rows_.size() - out;
  rows_.resize(out);
  row_ids_.resize(out);
  if (removed > 0) InvalidateIndexes();
  return removed;
}

size_t Table::RemoveIds(const std::unordered_set<int64_t>& remove) {
  size_t out = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!remove.count(row_ids_[i])) {
      if (out != i) {
        rows_[out] = std::move(rows_[i]);
        row_ids_[out] = row_ids_[i];
      }
      ++out;
    }
  }
  size_t removed = rows_.size() - out;
  rows_.resize(out);
  row_ids_.resize(out);
  if (removed > 0) InvalidateIndexes();
  return removed;
}

void Table::Clear() {
  rows_.clear();
  row_ids_.clear();
  InvalidateIndexes();
}

}  // namespace datalawyer
