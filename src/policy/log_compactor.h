#ifndef DATALAWYER_POLICY_LOG_COMPACTOR_H_
#define DATALAWYER_POLICY_LOG_COMPACTOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/plan_executor.h"
#include "log/usage_log.h"
#include "policy/witness.h"
#include "storage/catalog_view.h"

namespace datalawyer {

/// Per-query timings and volumes of the three compaction phases (§5.2:
/// "marking: the log compaction queries are executed ... delete: the
/// unmarked tuples are deleted ... insert: the remaining tuples in the
/// increment are appended").
struct CompactionStats {
  double mark_ms = 0;
  double delete_ms = 0;
  double insert_ms = 0;
  size_t rows_deleted = 0;           ///< removed from the persisted log
  size_t rows_inserted = 0;          ///< increment rows appended
  size_t rows_dropped_from_delta = 0;  ///< increment rows never persisted
  size_t index_probes = 0;  ///< witness-query equality probes against indexes
  size_t index_hits = 0;    ///< witness-query scans answered by an index
};

/// Executes the absolute-witness queries of every policy over
/// log ∪ increment, retains exactly the union of the witnesses, and flushes
/// the surviving increment rows (Algorithm 2 applied at the end of each
/// successful query, §4.4 step 3-4).
///
/// Witness rows are mapped back to physical tuples through the executor's
/// lineage capture: the contributing tuples of a witness query's output are
/// precisely the log tuples the witness touches — a sound (occasionally
/// conservative) realization of the paper's mark phase.
class LogCompactor {
 public:
  /// `log` must outlive the compactor. `options` configures the witness
  /// queries' executors (lineage capture is always added).
  explicit LogCompactor(UsageLog* log, ExecOptions options = {})
      : log_(log), options_(options) {}

  /// `witnesses` are the precomputed witness sets of all active policies;
  /// `base` is the database(-plus-constants) catalog; `now` the current
  /// clock. Relations named in `skip_retention` are wiped rather than
  /// queried (the time-independent fast path: nothing needs to persist).
  Result<CompactionStats> CompactAndFlush(
      const std::vector<const WitnessSet*>& witnesses,
      const CatalogView* base, int64_t now,
      const std::set<std::string>& skip_retention = {});

  /// Mark phase only: computes, per log relation, the ids to retain.
  /// Exposed for tests. `keep_all` names relations under full fallback;
  /// `scans` (optional) accumulates the witness queries' access-path
  /// counters.
  Result<std::map<std::string, std::set<int64_t>>> Mark(
      const std::vector<const WitnessSet*>& witnesses,
      const CatalogView* base, int64_t now, std::set<std::string>* keep_all,
      const std::set<std::string>& skip_retention = {},
      ScanStats* scans = nullptr);

 private:
  UsageLog* log_;
  ExecOptions options_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_LOG_COMPACTOR_H_
