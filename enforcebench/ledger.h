#ifndef ENFORCEBENCH_LEDGER_H_
#define ENFORCEBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/plan_executor.h"
#include "stream.h"
#include "system.h"

namespace enforcebench {

/// Median of a sample (0 when empty).
double Median(std::vector<double> v);

/// A named number with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer accounting for the traced run.
///
/// Spans are opened by the benchmark's own code, never inside the program:
///  - a root span around each public call (Execute, WouldAllow,
///    QueryUsageLog). For checked calls, the phases the program already
///    publishes through last_stats() and last_compaction_stats() become
///    child records of that span (durations and counts, no start time);
///    the root minus those phases is core.other_us, which must never be
///    negative;
///  - after each op of every other block of the stream, a "module probe"
///    span outside the public call that re-runs the op's SQL through each
///    module entry point (Parser::Parse, Binder::Bind, Planner::Plan,
///    Engine::ExecuteSelect, PlanExecutor::Run plain, with lineage and with
///    profiling). Ops of probed blocks are "traced", the others are not;
///    both have the same op mix, and the difference of their median
///    latencies is the tracing overhead.
///
/// Spans stay in memory and are written out once, at the end.
class Ledger {
 public:
  explicit Ledger(System* sys);

  /// Snapshots the cumulative counters the per-op deltas are taken from.
  void Begin();

  /// Records op `op_id`'s public call: its root span [start, end] and the
  /// phase children. `traced` marks an op of a probed block.
  void RecordCall(uint64_t op_id, const Op& op, double start_us,
                  double end_us, bool traced);

  /// Runs the module probe for `op` (outside any public call).
  void ProbeModules(uint64_t op_id, const Op& op);

  /// Per-layer metrics over the ops recorded since Begin().
  std::vector<Metric> Metrics() const;

  /// Ops whose published phases exceeded their root span.
  uint64_t structural_errors() const { return structural_errors_; }
  /// First few structural errors, for the report.
  const std::vector<std::string>& structural_notes() const { return notes_; }

  /// All spans as a JSON array, one span per line.
  std::string SpansJson() const;

  double NowUs() const;

 private:
  struct Span {
    int64_t id = 0;
    int64_t parent = -1;
    uint64_t op = 0;
    std::string name;
    double start_us = -1;  ///< < 0: a child record with a duration only
    double dur_us = 0;
    std::string counts;  ///< JSON object body, may be empty
  };
  struct Sum {
    double total = 0;
    uint64_t n = 0;
    void Add(double v) {
      total += v;
      ++n;
    }
    double Mean() const { return n == 0 ? 0 : total / double(n); }
  };
  struct ClassCost {
    double wall_us = 0;
    uint64_t rows_in = 0;
    double NsPerRow() const {
      return rows_in == 0 ? 0 : wall_us * 1000.0 / double(rows_in);
    }
  };

  int64_t AddSpan(int64_t parent, uint64_t op, std::string name,
                  double start_us, double dur_us, std::string counts = "");
  /// Adds a profiled run's operators to the per-class costs.
  void AddProfile(const std::vector<datalawyer::OperatorProfile>& ops);
  std::map<std::string, double> PolicyEvalUs() const;

  System* sys_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;

  // Checked calls (Execute of a SELECT, WouldAllow): the layer ledger.
  Sum root_, frontend_, log_gen_, eval_, mark_, delete_, insert_,
      user_exec_, other_;
  double statements_ = 0, pruned_ = 0, incr_hits_ = 0, incr_fallbacks_ = 0,
         incr_rebuilds_ = 0, cache_misses_ = 0, rows_staged_ = 0,
         rows_flushed_ = 0, rows_deleted_ = 0, index_probes_ = 0,
         index_hits_ = 0, range_probes_ = 0, range_hits_ = 0;
  Sum log_rows_;
  uint64_t start_version_ = 0;
  uint64_t structural_errors_ = 0;
  std::vector<std::string> notes_;

  // Every call, split by whether its block was probed.
  std::vector<double> traced_ms_, untraced_ms_;

  // Module probes.
  Sum parse_, bind_, plan_, query_, lineage_;
  ClassCost scan_, join_, aggregate_;
  uint64_t rows_examined_ = 0, rows_out_ = 0;

  std::map<std::string, double> policy_eval_start_;
};

}  // namespace enforcebench

#endif  // ENFORCEBENCH_LEDGER_H_
