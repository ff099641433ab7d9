#ifndef DATALAWYER_CORE_DECISION_H_
#define DATALAWYER_CORE_DECISION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/stats.h"

namespace datalawyer {

/// One usage-log row that satisfied a rejecting policy: the counterexample
/// the operator is shown when asking "why was this query rejected?".
/// Captured through the executor's lineage machinery at rejection time,
/// before the staged increment is discarded.
struct DecisionWitness {
  std::string relation;  ///< usage-log relation the row lives in
  int64_t row_id = 0;    ///< stable row id within that relation
  bool from_increment = false;  ///< staged by the rejected query itself
  int64_t ts = -1;       ///< the row's log timestamp; -1 if no ts column
  std::vector<std::string> values;  ///< rendered column values
};

/// What one active policy contributed to a verdict.
struct PolicyOutcome {
  std::string policy;
  /// "violated" (rejected the query), "ok" (evaluated clean), "pruned"
  /// (dismissed early by guard/partial/increment checks), or "skipped"
  /// (never reached — e.g. a later policy after an early rejection).
  std::string outcome;
  uint64_t evaluations = 0;  ///< statements run for this policy this query
  uint64_t prunes = 0;
  double eval_us = 0;
  /// "hit" when the verdict came from incremental state, "fallback" when
  /// the state declined and the full evaluation ran, empty when the
  /// incremental path was never consulted (full-only plan or feature off).
  std::string incremental;
};

/// The full, structured explanation of one enforcement verdict: what was
/// asked, what the system decided, which policies said what, which log rows
/// a rejecting policy matched, and where the time went. It is the only
/// per-query record: the audit trail and the slow-enforcement log are views
/// of the DecisionStore (see there).
struct DecisionRecord {
  uint64_t id = 0;     ///< monotonic per-store; 0 is never assigned
  int64_t ts = 0;      ///< logical clock at decision time
  int64_t uid = 0;
  std::string query_sql;
  uint64_t query_hash = 0;  ///< FNV-1a of query_sql (grouping key)
  bool admitted = false;
  bool probe = false;
  std::string policy;  ///< first rejecting policy; empty when admitted
  std::vector<std::string> messages;  ///< violation messages
  std::vector<PolicyOutcome> outcomes;  ///< registration order
  std::vector<DecisionWitness> witnesses;
  /// Violating rows beyond the capture cap (counted, not materialized).
  uint64_t witnesses_truncated = 0;

  PhaseTimings timings;

  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;

  /// Scheduler footprint of this query (from its task-group slot): morsels
  /// dispatched, its own tasks executed via a steal, and summed
  /// submit-to-start queue latency — so the decision log can answer "which
  /// query starved the pool".
  size_t morsels = 0;
  size_t steals = 0;
  uint64_t queue_wait_us = 0;

  const char* verdict() const { return admitted ? "accept" : "reject"; }

  /// Names of the policies whose outcome is "violated", in registration
  /// order — the audit trail's "violated policies" field.
  std::vector<std::string> ViolatedPolicies() const;

  /// One JSON object (JsonEscape'd strings throughout).
  std::string ToJson() const;

  /// The slow-log entry: one flat JSON object of the seven phase timings.
  std::string ProfileJson() const;
};

/// Ring-bounded store of recent DecisionRecords, and the two views over it:
///
/// - the audit trail, "what was asked, by whom, and what did we decide"
///   (§2's auditing scenario). SaveAudit/LoadAudit persist it as a
///   `dl-audit-v2` TSV file; nothing saves it implicitly (the shell's
///   `\save` writes only the database and the usage log);
/// - the slow-enforcement log, the records whose total_us() meets a
///   threshold (Slow/SlowJson).
///
/// `enabled()` is a single relaxed atomic load — the only cost the accept
/// path pays when decision recording is off (the tracing discipline).
/// Appends happen on the Execute path only; the class itself is plain and
/// relies on DataLawyer's serial-API contract.
class DecisionStore {
 public:
  explicit DecisionStore(size_t capacity = 1024) : capacity_(capacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Reserves the next decision id (monotonic from 1; never reused).
  uint64_t NextId() { return next_id_++; }

  void Append(DecisionRecord record);

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);
  uint64_t total_appended() const { return total_appended_; }
  uint64_t dropped() const { return dropped_; }

  /// Oldest-first view of the retained records.
  const std::deque<DecisionRecord>& records() const { return records_; }

  /// The `n` most recent records, oldest-first.
  std::vector<DecisionRecord> Tail(size_t n) const;

  /// nullptr when the id was never assigned or has been evicted. The
  /// pointer is invalidated by the next Append/Clear.
  const DecisionRecord* FindById(uint64_t id) const;

  /// JSON array of every retained record, oldest-first.
  std::string ToJson() const;

  /// The slow-enforcement view: retained records whose total_us() is at
  /// least `threshold_us`, oldest-first. Empty when threshold_us <= 0.
  std::vector<const DecisionRecord*> Slow(double threshold_us) const;

  /// JSON array of the slow view's ProfileJson objects, oldest-first.
  std::string SlowJson(double threshold_us) const;

  /// Writes the retained records to `path` as a `dl-audit-v2` audit trail
  /// (one record per line).
  Status SaveAudit(const std::string& path) const;

  /// Appends the records of a `dl-audit-v1`/`-v2` file, evicting as
  /// needed. All or nothing: any malformed line returns InvalidArgument
  /// and leaves the store unchanged. A record keeps its file id when that
  /// id is above every retained one, and the next free id otherwise, so
  /// ids stay strictly increasing. The v2 format keeps the frontend phases
  /// only inside the total, so a loaded record carries parse + bind + plan
  /// as parse_us. v1 records have no id and always take the next free id.
  Status LoadAudit(const std::string& path);

  void Clear();

 private:
  std::atomic<bool> enabled_{true};
  uint64_t next_id_ = 1;
  size_t capacity_;
  std::deque<DecisionRecord> records_;
  uint64_t total_appended_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_DECISION_H_
