#include "ledger.h"

#include <algorithm>
#include <cstdio>

#include "analysis/binder.h"
#include "common/strings.h"
#include "exec/plan_executor.h"
#include "log/usage_log.h"
#include "plan/optimizer.h"
#include "sql/parser.h"

namespace enforcebench {

using namespace datalawyer;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string Counts(
    std::initializer_list<std::pair<const char*, double>> kv) {
  std::string out;
  char buf[64];
  for (const auto& [k, v] : kv) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out.empty() ? "" : ",",
                  k, v);
    out += buf;
  }
  return out;
}

}  // namespace

Ledger::Ledger(System* sys)
    : sys_(sys), epoch_(std::chrono::steady_clock::now()) {}

double Ledger::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::map<std::string, double> Ledger::PolicyEvalUs() const {
  std::map<std::string, double> out;
  for (const PolicyStats& ps : sys_->dl->PolicyReport()) {
    out[ps.name] = ps.eval_us;
  }
  return out;
}

void Ledger::Begin() {
  policy_eval_start_ = PolicyEvalUs();
  start_version_ = sys_->db->version();
}

int64_t Ledger::AddSpan(int64_t parent, uint64_t op, std::string name,
                        double start_us, double dur_us, std::string counts) {
  Span s;
  s.id = int64_t(spans_.size());
  s.parent = parent;
  s.op = op;
  s.name = std::move(name);
  s.start_us = start_us;
  s.dur_us = dur_us;
  s.counts = std::move(counts);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Ledger::RecordCall(uint64_t op_id, const Op& op, double start_us,
                        double end_us, bool traced) {
  double root_us = end_us - start_us;
  (traced ? traced_ms_ : untraced_ms_).push_back(root_us / 1000.0);
  const char* call = op.kind == OpKind::kProbe   ? "WouldAllow"
                     : op.kind == OpKind::kAudit ? "QueryUsageLog"
                                                 : "Execute";
  int64_t root = AddSpan(-1, op_id,
                         std::string(call) + ":" + OpKindName(op.kind),
                         start_us, root_us);
  // Inserts bypass the policy gate and QueryUsageLog publishes no phases:
  // last_stats() describes only Execute of a SELECT and WouldAllow.
  if (op.kind == OpKind::kWrite || op.kind == OpKind::kAudit) return;

  const ExecutionStats& st = sys_->dl->last_stats();
  double frontend = st.parse_us + st.bind_us + st.plan_us;
  double log_gen = st.log_gen_ms * 1000.0;
  double eval = st.policy_wall_us;
  double mark = st.compact_mark_ms * 1000.0;
  double del = st.compact_delete_ms * 1000.0;
  double ins = st.compact_insert_ms * 1000.0;
  double user = st.query_exec_ms * 1000.0;
  double other = root_us - (frontend + log_gen + eval + mark + del + ins +
                            user);
  AddSpan(root, op_id, "core.frontend", -1, frontend,
          Counts({{"parse_us", st.parse_us},
                  {"bind_us", st.bind_us},
                  {"plan_us", st.plan_us},
                  {"plan_cache_misses", double(st.plan_cache_misses)}}));
  AddSpan(root, op_id, "log.gen", -1, log_gen,
          Counts({{"logs_generated", double(st.logs_generated)},
                  {"skipped_preemptively",
                   double(st.logs_skipped_preemptively)},
                  {"rows_staged", double(st.log_rows_staged)}}));
  AddSpan(root, op_id, "policy.eval", -1, eval,
          Counts({{"statements", double(st.policies_evaluated)},
                  {"pruned", double(st.policies_pruned_early)},
                  {"incremental_hits", double(st.incremental_hits)},
                  {"incremental_fallbacks", double(st.incremental_fallbacks)},
                  {"incremental_rebuilds", double(st.incremental_rebuilds)},
                  {"index_probes", double(st.index_probes)},
                  {"index_hits", double(st.index_hits)},
                  {"range_probes", double(st.range_probes)},
                  {"range_hits", double(st.range_hits)}}));
  const CompactionStats& cs = sys_->dl->last_compaction_stats();
  AddSpan(root, op_id, "policy.compact_mark", -1, mark,
          Counts({{"witness_index_probes", double(cs.index_probes)},
                  {"witness_index_hits", double(cs.index_hits)}}));
  AddSpan(root, op_id, "policy.compact_delete", -1, del,
          Counts({{"rows_deleted", double(st.log_rows_deleted)}}));
  AddSpan(root, op_id, "policy.compact_insert", -1, ins,
          Counts({{"rows_flushed", double(st.log_rows_flushed)},
                  {"dropped_from_delta",
                   double(cs.rows_dropped_from_delta)}}));
  AddSpan(root, op_id, "exec.user_query", -1, user);
  AddSpan(root, op_id, "core.other", -1, other);

  if (other < 0) {
    ++structural_errors_;
    if (notes_.size() < 5) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "op %llu (%s): phases exceed root span by %.3f us",
                    (unsigned long long)op_id, OpKindName(op.kind), -other);
      notes_.push_back(buf);
    }
  }
  root_.Add(root_us);
  frontend_.Add(frontend);
  log_gen_.Add(log_gen);
  eval_.Add(eval);
  mark_.Add(mark);
  delete_.Add(del);
  insert_.Add(ins);
  user_exec_.Add(user);
  other_.Add(other);
  statements_ += double(st.policies_evaluated);
  pruned_ += double(st.policies_pruned_early);
  incr_hits_ += double(st.incremental_hits);
  incr_fallbacks_ += double(st.incremental_fallbacks);
  incr_rebuilds_ += double(st.incremental_rebuilds);
  cache_misses_ += double(st.plan_cache_misses);
  rows_staged_ += double(st.log_rows_staged);
  rows_flushed_ += double(st.log_rows_flushed);
  rows_deleted_ += double(st.log_rows_deleted);
  index_probes_ += double(st.index_probes);
  index_hits_ += double(st.index_hits);
  range_probes_ += double(st.range_probes);
  range_hits_ += double(st.range_hits);
  log_rows_.Add(double(LogRowsRetained(sys_->dl.get())));
}

void Ledger::AddProfile(const std::vector<OperatorProfile>& ops) {
  for (const OperatorProfile& op : ops) {
    // A subquery scan's time already includes its inner operators.
    if (StartsWith(op.label, "scan subquery")) continue;
    ClassCost* cls = StartsWith(op.label, "scan")        ? &scan_
                     : op.label.find("join") != std::string::npos ? &join_
                     : StartsWith(op.label, "aggregate") ? &aggregate_
                                                          : nullptr;
    if (cls == nullptr) continue;
    cls->wall_us += op.wall_us;
    cls->rows_in += op.rows_in;
  }
}

void Ledger::ProbeModules(uint64_t op_id, const Op& op) {
  double probe_start = NowUs();
  int64_t root = AddSpan(-1, op_id, "bench.module_probe", probe_start, 0);
  auto span = [&](const char* name, double t0) {
    double t1 = NowUs();
    AddSpan(root, op_id, name, t0, t1 - t0);
    return t1 - t0;
  };
  auto finish = [&] { spans_[root].dur_us = NowUs() - probe_start; };

  double t0 = NowUs();
  Result<Statement> parsed = Parser::Parse(op.sql);
  parse_.Add(span("sql.Parser::Parse", t0));
  if (!parsed.ok() || parsed->kind != StatementKind::kSelect) {
    finish();
    return;
  }
  const SelectStmt& stmt = *parsed->select;
  UsageLog::PolicyCatalog log_catalog = sys_->dl->usage_log()->MakeCatalog(
      sys_->dl->system_catalog(), sys_->clock->Now());
  const CatalogView* catalog = op.kind == OpKind::kAudit
                                   ? log_catalog.view()
                                   : sys_->dl->system_catalog();

  t0 = NowUs();
  Result<std::unique_ptr<BoundQuery>> bound = Binder(catalog).Bind(stmt);
  bind_.Add(span("analysis.Binder::Bind", t0));
  if (!bound.ok()) {
    finish();
    return;
  }
  Planner planner;
  t0 = NowUs();
  Result<PhysicalPlan> plan = planner.Plan(**bound);
  plan_.Add(span("plan.Planner::Plan", t0));
  if (!plan.ok()) {
    finish();
    return;
  }

  t0 = NowUs();
  bool engine_ok = sys_->dl->engine()->ExecuteSelect(stmt, catalog).ok();
  double engine_us = span("exec.Engine::ExecuteSelect", t0);
  if (engine_ok) query_.Add(engine_us);

  PlanExecutor plain_exec(catalog);
  t0 = NowUs();
  Result<QueryResult> plain = plain_exec.Run(*plan);
  double plain_us = span("exec.PlanExecutor::Run", t0);

  ExecOptions lineage_options;
  lineage_options.capture_lineage = true;
  PlanExecutor lineage(catalog, lineage_options);
  t0 = NowUs();
  bool lineage_ok = lineage.Run(*plan).ok();
  double lineage_us = span("exec.PlanExecutor::Run+lineage", t0);
  if (plain.ok() && lineage_ok) lineage_.Add(lineage_us - plain_us);

  // Profiling times each operator and builds its label, so it gets a run
  // of its own rather than skewing the two timed above.
  PlanExecutor profiled(catalog);
  profiled.EnableProfiling();
  t0 = NowUs();
  bool profiled_ok = profiled.Run(*plan).ok();
  span("exec.PlanExecutor::Run+profile", t0);
  if (profiled_ok && plain.ok()) {
    AddProfile(profiled.profile());
    for (const OperatorProfile& p : profiled.profile()) {
      if (p.depth == 0) rows_examined_ += p.rows_in;
    }
    rows_out_ += plain->NumRows();
  }
  finish();
}

std::vector<Metric> Ledger::Metrics() const {
  double ops = double(std::max<uint64_t>(root_.n, 1));
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  std::vector<Metric> out = {
      {"sql.parse_us", parse_.Mean(), "us"},
      {"analysis.bind_us", bind_.Mean(), "us"},
      {"plan.plan_us", plan_.Mean(), "us"},
      {"core.plan_cache_misses",
       (cache_misses_ + double(sys_->db->version() - start_version_)) / ops,
       "count/op"},
      {"exec.query_us", query_.Mean(), "us"},
      {"exec.lineage_us", lineage_.Mean(), "us"},
      {"exec.scan_ns_per_row", scan_.NsPerRow(), "ns/row"},
      {"exec.join_ns_per_row", join_.NsPerRow(), "ns/row"},
      {"exec.aggregate_ns_per_row", aggregate_.NsPerRow(), "ns/row"},
      {"exec.rows_examined_per_row",
       ratio(double(rows_examined_), double(rows_out_)), "rows/row"},
      {"exec.user_exec_us", user_exec_.Mean(), "us"},
      {"log.gen_us", log_gen_.Mean(), "us"},
      {"log.rows_staged", rows_staged_ / ops, "count/op"},
      {"log.rows_flushed", rows_flushed_ / ops, "count/op"},
      {"log.rows_deleted", rows_deleted_ / ops, "count/op"},
      {"policy.eval_wall_us", eval_.Mean(), "us"},
      {"policy.statements", statements_ / ops, "count/op"},
      {"policy.prune_ratio", ratio(pruned_, statements_), "ratio"},
      {"policy.incremental_hit_ratio",
       ratio(incr_hits_, incr_hits_ + incr_fallbacks_), "ratio"},
      {"policy.incremental_rebuilds", incr_rebuilds_ / ops, "count/op"},
  };
  std::map<std::string, double> now = PolicyEvalUs();
  for (int i = 1; i <= 6; ++i) {
    std::string name = "p" + std::to_string(i);
    auto start = policy_eval_start_.find(name);
    double before = start == policy_eval_start_.end() ? 0 : start->second;
    out.push_back({"policy." + name + ".eval_us", (now[name] - before) / ops,
                   "us"});
  }
  std::vector<Metric> rest = {
      {"policy.compact_mark_us", mark_.Mean(), "us"},
      {"policy.compact_delete_us", delete_.Mean(), "us"},
      {"policy.compact_insert_us", insert_.Mean(), "us"},
      {"storage.index_probes", index_probes_ / ops, "count/op"},
      {"storage.index_hit_ratio", ratio(index_hits_, index_probes_), "ratio"},
      {"storage.range_probes", range_probes_ / ops, "count/op"},
      {"storage.range_hit_ratio", ratio(range_hits_, range_probes_), "ratio"},
      {"storage.log_rows", log_rows_.Mean(), "rows"},
      {"core.frontend_us", frontend_.Mean(), "us"},
      {"core.other_us", other_.Mean(), "us"},
      {"core.root_us", root_.Mean(), "us"},
      {"trace.overhead_ms", Median(traced_ms_) - Median(untraced_ms_), "ms"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string Ledger::SpansJson() const {
  std::string out = "[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%lld,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f",
                  (long long)s.id, (long long)s.parent,
                  (unsigned long long)s.op, JsonEscape(s.name).c_str(),
                  s.start_us, s.dur_us);
    out += buf;
    if (!s.counts.empty()) out += ",\"counts\":{" + s.counts + "}";
    out += i + 1 < spans_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

}  // namespace enforcebench
