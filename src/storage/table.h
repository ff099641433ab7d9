#ifndef DATALAWYER_STORAGE_TABLE_H_
#define DATALAWYER_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "common/value_hash.h"
#include "storage/schema.h"
#include "storage/stats.h"

namespace datalawyer {

/// Read-only scan interface the executor consumes. Implemented by Table and
/// by the overlay relations in catalog_view.h (log + in-memory increment,
/// the synthesized Clock row, unified-policy Constants, ...).
class RelationData {
 public:
  virtual ~RelationData() = default;
  virtual const TableSchema& schema() const = 0;
  virtual size_t NumRows() const = 0;
  virtual const Row& RowAt(size_t i) const = 0;
  /// Stable id of row i — survives deletions of other rows. Used as the
  /// provenance `itid` and by log compaction's mark phase.
  virtual int64_t RowIdAt(size_t i) const = 0;

  /// Appends to `*out` — in ascending position order — the positions of
  /// every row whose column `col` equals `v` under SQL `=` (so an int64
  /// probe finds the equal doubles and vice versa; a NULL probe finds
  /// nothing), when a valid hash index (or an equivalent bounded probe) can
  /// answer; returns false to mean "no index — scan". Must be safe to call
  /// concurrently with other const reads: implementations may not mutate
  /// shared state.
  virtual bool IndexLookup(size_t col, const Value& v,
                           std::vector<size_t>* out) const {
    (void)col;
    (void)v;
    (void)out;
    return false;
  }

  /// Appends to `*out` — in ascending position order — every row whose
  /// column `col` falls within [lo, hi] (either bound may be null = open;
  /// inclusivity per flag), when a valid ordered index can answer; returns
  /// false to mean "no ordered index — scan". A NULL Value bound returns
  /// true with no hits (SQL comparisons against NULL never hold). Like
  /// IndexLookup, must be const and safe under concurrent reads.
  virtual bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                           const Value* hi, bool hi_inclusive,
                           std::vector<size_t>* out) const {
    (void)col;
    (void)lo;
    (void)lo_inclusive;
    (void)hi;
    (void)hi_inclusive;
    (void)out;
    return false;
  }

  /// Plan-time capability probes for the cost model: whether an equality /
  /// ordered index currently answers for `col`. The run-time Lookup calls
  /// remain authoritative (index state can change between planning and
  /// execution); these only steer cost estimates and EXPLAIN.
  virtual bool HasHashIndex(size_t col) const {
    (void)col;
    return false;
  }
  virtual bool HasOrderedIndex(size_t col) const {
    (void)col;
    return false;
  }

  /// Maintained statistics for this relation, or nullptr when none are
  /// kept. The returned snapshot is only guaranteed stable while no writer
  /// mutates the relation (same phasing discipline as index reads).
  virtual const TableStats* Stats() const { return nullptr; }
};

/// In-memory row store with stable row ids.
///
/// Deletion is by *retention*: LogCompactor computes the set of row ids that
/// form the absolute witness and calls RetainOnly() with it (§4.1.2).
class Table : public RelationData {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const override { return schema_; }
  size_t NumRows() const override { return rows_.size(); }
  const Row& RowAt(size_t i) const override { return rows_[i]; }
  int64_t RowIdAt(size_t i) const override { return row_ids_[i]; }

  /// Appends one row; returns its stable row id. Fails if the arity does
  /// not match the schema.
  Result<int64_t> Append(Row row);

  /// Appends many rows.
  Status AppendAll(std::vector<Row> rows);

  /// Deletes every row whose id is NOT in `keep`; returns the number of
  /// rows removed.
  size_t RetainOnly(const std::unordered_set<int64_t>& keep);

  /// Deletes every row whose id IS in `remove`; returns the number removed.
  size_t RemoveIds(const std::unordered_set<int64_t>& remove);

  void Clear();

  /// Builds a hash index on `column` for equality pushdown. Append maintains
  /// the index incrementally; deletions (RetainOnly/RemoveIds/Clear)
  /// invalidate it (silently, falling back to scans) until the next
  /// BuildIndex or RefreshIndexes call.
  Status BuildIndex(const std::string& column);

  /// Rebuilds every index invalidated by a deletion. Cheap no-op when all
  /// indexes are current. Not thread-safe: call only while no reader is
  /// scanning the table (the usage-log protocol guarantees this — indexes
  /// are refreshed after compaction, before the next query's checks).
  void RefreshIndexes();

  /// Drops every hash index (the inverse of BuildIndex). Subsequent scans
  /// fall back to full walks until indexes are built again.
  void DropIndexes() { indexes_.clear(); }

  /// True if a current (non-invalidated) index exists on `col`.
  bool HasValidIndex(size_t col) const;

  bool IndexLookup(size_t col, const Value& v,
                   std::vector<size_t>* out) const override;

  /// Builds an ordered (sorted-run) index on `column` for range pushdown.
  /// Appends accumulate in an unsorted tail that probes scan linearly until
  /// it grows past a threshold, when it is merged into the run; deletions
  /// invalidate the index (silently, falling back to scans) until the next
  /// RefreshIndexes/BuildOrderedIndex. Only homogeneously typed columns
  /// (all-numeric or all-string, NULLs aside) are servable: a mixed-type or
  /// non-finite column marks the index unusable rather than risking a
  /// comparison whose semantics differ from the executor's.
  Status BuildOrderedIndex(const std::string& column);

  /// Drops every ordered index (the inverse of BuildOrderedIndex).
  void DropOrderedIndexes() { ordered_indexes_.clear(); }

  /// True if a current (non-invalidated) ordered index exists on `col`.
  bool HasValidOrderedIndex(size_t col) const;

  bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   std::vector<size_t>* out) const override;

  bool HasHashIndex(size_t col) const override { return HasValidIndex(col); }
  bool HasOrderedIndex(size_t col) const override {
    return HasValidOrderedIndex(col);
  }

  /// Turns on incremental statistics (row count, exact per-column NDVs,
  /// numeric min/max): Append folds each new row in; deletions invalidate
  /// the stats until RefreshIndexes recomputes them. Stats() is a const
  /// read of the eagerly maintained snapshot, safe under the same phasing
  /// as index probes.
  void EnableStats();
  void DisableStats();
  bool stats_enabled() const { return stats_enabled_; }

  const TableStats* Stats() const override {
    return stats_enabled_ && stats_built_at_version_ == version_ ? &stats_
                                                                 : nullptr;
  }

  /// Monotonic counter bumped by every deletion (RetainOnly / RemoveIds /
  /// Clear); appends leave it unchanged. Lets incremental-evaluation state
  /// detect in-place shrinkage that a (NumRows, suffix-fold) protocol would
  /// otherwise miss.
  uint64_t mutation_epoch() const { return version_; }

 private:
  struct OrderedIndex;

  void InvalidateIndexes() { ++version_; }
  void RebuildStats();
  void FoldRowIntoStats(const Row& row);
  void RebuildOrderedIndex(OrderedIndex* index);

  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<int64_t> row_ids_;
  int64_t next_row_id_ = 0;

  struct HashIndex {
    size_t column = 0;
    uint64_t built_at_version = 0;
    std::unordered_map<Value, std::vector<size_t>, ValueHash> positions;
  };
  std::vector<HashIndex> indexes_;

  /// Sorted-run index: `sorted` covers rows [0, indexed_rows) in value
  /// order; rows appended since the last merge form the tail and are
  /// scanned linearly by RangeLookup until Append merges them in.
  struct OrderedIndex {
    size_t column = 0;
    uint64_t built_at_version = 0;
    std::vector<std::pair<Value, size_t>> sorted;
    size_t indexed_rows = 0;
    bool usable = true;  ///< false: mixed/unorderable types, always scan
    /// Homogeneous value class of the indexed column: 0 = no non-NULL
    /// values seen yet, 1 = numeric, 2 = string.
    int value_class = 0;
  };
  /// Tail length that triggers a merge into the sorted run on Append.
  static constexpr size_t kOrderedTailMergeThreshold = 256;
  std::vector<OrderedIndex> ordered_indexes_;

  bool stats_enabled_ = false;
  TableStats stats_;
  uint64_t stats_built_at_version_ = 0;
  /// Exact distinct-value sets backing stats_.columns[i].ndv.
  std::vector<std::unordered_set<Value, ValueHash>> stats_distinct_;
  /// Per-column flag: a non-numeric or non-finite value was seen, so the
  /// min/max range is permanently dropped (until a rebuild).
  std::vector<bool> stats_range_ok_;

  uint64_t version_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_STORAGE_TABLE_H_
