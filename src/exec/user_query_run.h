#ifndef DATALAWYER_EXEC_USER_QUERY_RUN_H_
#define DATALAWYER_EXEC_USER_QUERY_RUN_H_

#include "analysis/bound_query.h"
#include "common/result.h"
#include "exec/plan_executor.h"
#include "exec/query_result.h"
#include "storage/catalog_view.h"

namespace datalawyer {

/// The single execution of one checked user query, shared by everything
/// that needs the query's output. The checked path creates it after binding
/// the statement, and whichever consumer comes first runs it:
///  * a log generator asking for lineage (f_Provenance) runs the query with
///    lineage capture, and the admitted answer reuses those rows;
///  * when no generator asked, the answer runs the query plainly.
/// Either way the statement is bound once and executed at most once, and a
/// rejected query or a probe that never reaches provenance never runs it.
///
/// Sharing the run is sound because nothing the query reads changes between
/// log generation and the answer: base tables are not written inside a
/// checked query, and dl_* snapshots are materialized when the query is
/// bound and then served unchanged.
class UserQueryRun {
 public:
  /// `catalog` and `bound` (and the AST behind it) must outlive the run.
  /// `options` are the answer's execution options; the capturing run adds
  /// capture_lineage to them.
  UserQueryRun(const CatalogView* catalog, const BoundQuery* bound,
               ExecOptions options)
      : catalog_(catalog), bound_(bound), options_(options) {}

  UserQueryRun(const UserQueryRun&) = delete;
  UserQueryRun& operator=(const UserQueryRun&) = delete;

  /// The query's output with lineage, executing it with capture on the first
  /// call. Every call after a failed execution returns the same error.
  Result<const QueryResult*> Lineage();

  /// Frees the lineage vectors once their consumer is done with them; the
  /// rows stay for TakeAnswer. Later Lineage calls fail.
  void ReleaseLineage();

  /// The user-visible answer: the captured rows with lineage stripped, or a
  /// plain execution when nothing captured. Call at most once.
  Result<QueryResult> TakeAnswer();

  /// Execution cost not yet handed to the caller's accounting: wall time
  /// and morsels dispatched. TakeCost returns it and resets it to zero, so
  /// every execution is charged exactly once wherever it happened.
  struct Cost {
    double ms = 0;
    size_t morsels = 0;
  };
  Cost TakeCost();

 private:
  Result<QueryResult> Execute(bool capture_lineage);

  const CatalogView* catalog_;
  const BoundQuery* bound_;
  ExecOptions options_;
  bool captured_ = false;  ///< the capturing execution ran (ok or not)
  bool lineage_released_ = false;
  Status status_ = Status::OK();  ///< the capturing execution's outcome
  QueryResult result_;
  Cost cost_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_EXEC_USER_QUERY_RUN_H_
