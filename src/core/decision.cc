#include "core/decision.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/strings.h"

namespace datalawyer {

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void AppendStringArray(std::string* out, const std::vector<std::string>& xs) {
  *out += "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"";
    AppendJsonEscaped(out, xs[i]);
    *out += "\"";
  }
  *out += "]";
}

void AppendProfileField(std::string* out, const char* name, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.1f,", name, us);
  *out += buf;
}

/// Policy names ride inside one TSV field joined by raw commas, so on top
/// of the shared TsvEscape they escape the comma too. TsvUnescape's
/// unknown-escape rule turns `\,` back into `,`.
std::string EscapeName(const std::string& s) {
  std::string out;
  for (char c : TsvEscape(s)) {
    if (c == ',') out += '\\';
    out += c;
  }
  return out;
}

/// v2 appends the decision_id field; v1 files (11 fields) still load.
constexpr char kAuditHeader[] = "dl-audit-v2";
constexpr char kAuditHeaderV1[] = "dl-audit-v1";

/// Strict whole-field number parse: no whitespace, no trailing bytes.
template <typename T>
bool ParseNumber(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseFlag(const std::string& field, bool* out) {
  if (field != "0" && field != "1") return false;
  *out = field == "1";
  return true;
}

/// Parses one audit line (fields already split) into `r`; returns the name
/// of the first malformed field, or nullptr.
const char* ParseAuditFields(const std::vector<std::string>& f, bool v1,
                             DecisionRecord* r) {
  double total_us = 0;
  PhaseTimings& t = r->timings;
  if (!ParseNumber(f[0], &r->ts)) return "ts";
  if (!ParseNumber(f[1], &r->uid)) return "uid";
  if (!ParseFlag(f[2], &r->admitted)) return "admitted";
  if (!ParseFlag(f[3], &r->probe)) return "probe";
  if (!ParseNumber(f[4], &total_us)) return "total_us";
  if (!ParseNumber(f[5], &t.user_exec_us)) return "query_exec_us";
  if (!ParseNumber(f[6], &t.log_gen_us)) return "log_gen_us";
  if (!ParseNumber(f[7], &t.policy_eval_us)) return "policy_eval_us";
  if (!ParseNumber(f[8], &t.compaction_us)) return "compaction_us";
  size_t i = 9;
  if (!v1) {
    // The largest id would leave no next id above it.
    if (!ParseNumber(f[i], &r->id) || r->id == UINT64_MAX) {
      return "decision_id";
    }
    ++i;
  }
  // The frontend phases are only inside the total; keep the remainder so
  // total_us() reproduces the saved figure.
  t.parse_us = total_us - (t.user_exec_us + t.log_gen_us + t.policy_eval_us +
                           t.compaction_us);
  for (const std::string& name : SplitEscaped(f[i], ',')) {
    if (name.empty()) continue;
    PolicyOutcome o;
    o.policy = TsvUnescape(name);
    o.outcome = "violated";
    r->outcomes.push_back(std::move(o));
  }
  if (!r->admitted && !r->outcomes.empty()) r->policy = r->outcomes[0].policy;
  r->query_sql = TsvUnescape(f[i + 1]);
  r->query_hash = Fnv1a64(r->query_sql);
  return nullptr;
}

}  // namespace

std::vector<std::string> DecisionRecord::ViolatedPolicies() const {
  std::vector<std::string> names;
  for (const PolicyOutcome& o : outcomes) {
    if (o.outcome == "violated") names.push_back(o.policy);
  }
  return names;
}

std::string DecisionRecord::ProfileJson() const {
  std::string out = "{";
  out += "\"ts\":" + std::to_string(ts) + ",";
  out += "\"uid\":" + std::to_string(uid) + ",";
  out += "\"sql\":\"" + JsonEscape(query_sql) + "\",";
  out += admitted ? "\"rejected\":false," : "\"rejected\":true,";
  out += probe ? "\"probe\":true," : "\"probe\":false,";
  AppendProfileField(&out, "parse_us", timings.parse_us);
  AppendProfileField(&out, "bind_us", timings.bind_us);
  AppendProfileField(&out, "plan_us", timings.plan_us);
  AppendProfileField(&out, "log_gen_us", timings.log_gen_us);
  AppendProfileField(&out, "policy_eval_us", timings.policy_eval_us);
  AppendProfileField(&out, "compaction_us", timings.compaction_us);
  AppendProfileField(&out, "user_exec_us", timings.user_exec_us);
  AppendProfileField(&out, "total_us", timings.total_us());
  out.back() = '}';  // replace the trailing comma
  return out;
}

std::string DecisionRecord::ToJson() const {
  std::string out = "{";
  out += "\"id\":" + std::to_string(id);
  out += ",\"ts\":" + std::to_string(ts);
  out += ",\"uid\":" + std::to_string(uid);
  out += ",\"verdict\":\"";
  out += verdict();
  out += "\",\"probe\":";
  out += probe ? "true" : "false";
  out += ",\"query\":\"";
  AppendJsonEscaped(&out, query_sql);
  out += "\",\"query_hash\":\"";
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                (unsigned long long)query_hash);
  out += hash_buf;
  out += "\"";
  if (!policy.empty()) {
    out += ",\"policy\":\"";
    AppendJsonEscaped(&out, policy);
    out += "\"";
  }
  if (!messages.empty()) {
    out += ",\"messages\":";
    AppendStringArray(&out, messages);
  }
  out += ",\"outcomes\":[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const PolicyOutcome& o = outcomes[i];
    if (i > 0) out += ",";
    out += "{\"policy\":\"";
    AppendJsonEscaped(&out, o.policy);
    out += "\",\"outcome\":\"";
    AppendJsonEscaped(&out, o.outcome);
    out += "\",\"evaluations\":" + std::to_string(o.evaluations);
    out += ",\"prunes\":" + std::to_string(o.prunes);
    out += ",\"eval_us\":";
    AppendNumber(&out, o.eval_us);
    if (!o.incremental.empty()) {
      out += ",\"incremental\":\"";
      AppendJsonEscaped(&out, o.incremental);
      out += "\"";
    }
    out += "}";
  }
  out += "],\"witnesses\":[";
  for (size_t i = 0; i < witnesses.size(); ++i) {
    const DecisionWitness& w = witnesses[i];
    if (i > 0) out += ",";
    out += "{\"relation\":\"";
    AppendJsonEscaped(&out, w.relation);
    out += "\",\"row_id\":" + std::to_string(w.row_id);
    out += ",\"from_increment\":";
    out += w.from_increment ? "true" : "false";
    out += ",\"ts\":" + std::to_string(w.ts);
    out += ",\"values\":";
    AppendStringArray(&out, w.values);
    out += "}";
  }
  out += "]";
  if (witnesses_truncated > 0) {
    out += ",\"witnesses_truncated\":" + std::to_string(witnesses_truncated);
  }
  out += ",\"timings_us\":{\"parse\":";
  AppendNumber(&out, timings.parse_us);
  out += ",\"bind\":";
  AppendNumber(&out, timings.bind_us);
  out += ",\"plan\":";
  AppendNumber(&out, timings.plan_us);
  out += ",\"log_gen\":";
  AppendNumber(&out, timings.log_gen_us);
  out += ",\"policy_eval\":";
  AppendNumber(&out, timings.policy_eval_us);
  out += ",\"compaction\":";
  AppendNumber(&out, timings.compaction_us);
  out += ",\"user_exec\":";
  AppendNumber(&out, timings.user_exec_us);
  out += ",\"total\":";
  AppendNumber(&out, timings.total_us());
  out += "}";
  out += ",\"plan_cache\":{\"hits\":" + std::to_string(plan_cache_hits) +
         ",\"misses\":" + std::to_string(plan_cache_misses) + "}";
  out += ",\"sched\":{\"morsels\":" + std::to_string(morsels) +
         ",\"steals\":" + std::to_string(steals) +
         ",\"queue_wait_us\":" + std::to_string(queue_wait_us) + "}";
  out += "}";
  return out;
}

void DecisionStore::Append(DecisionRecord record) {
  ++total_appended_;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

void DecisionStore::set_capacity(size_t capacity) {
  capacity_ = capacity;
  while (records_.size() > capacity_) {
    records_.pop_front();
    ++dropped_;
  }
}

std::vector<DecisionRecord> DecisionStore::Tail(size_t n) const {
  size_t start = records_.size() > n ? records_.size() - n : 0;
  return std::vector<DecisionRecord>(records_.begin() + start,
                                     records_.end());
}

const DecisionRecord* DecisionStore::FindById(uint64_t id) const {
  // Ids are strictly increasing along the ring (Append order from NextId;
  // LoadAudit keeps it so).
  auto it = std::lower_bound(
      records_.begin(), records_.end(), id,
      [](const DecisionRecord& r, uint64_t want) { return r.id < want; });
  return it != records_.end() && it->id == id ? &*it : nullptr;
}

std::string DecisionStore::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const DecisionRecord& r : records_) {
    if (!first) out += ",";
    first = false;
    out += r.ToJson();
  }
  out += "]";
  return out;
}

std::vector<const DecisionRecord*> DecisionStore::Slow(
    double threshold_us) const {
  std::vector<const DecisionRecord*> slow;
  if (threshold_us <= 0) return slow;
  for (const DecisionRecord& r : records_) {
    if (r.timings.total_us() >= threshold_us) slow.push_back(&r);
  }
  return slow;
}

std::string DecisionStore::SlowJson(double threshold_us) const {
  std::string out = "[";
  for (const DecisionRecord* r : Slow(threshold_us)) {
    if (out.size() > 1) out += ",";
    out += "\n" + r->ProfileJson();
  }
  out += "\n]";
  return out;
}

Status DecisionStore::SaveAudit(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << kAuditHeader << "\n";
  char buf[192];
  for (const DecisionRecord& r : records_) {
    std::string policies;  // each name escaped; raw commas separate them
    for (const std::string& name : r.ViolatedPolicies()) {
      if (!policies.empty()) policies += ",";
      policies += EscapeName(name);
    }
    const PhaseTimings& t = r.timings;
    std::snprintf(buf, sizeof(buf),
                  "%lld\t%lld\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%llu",
                  (long long)r.ts, (long long)r.uid, r.admitted ? 1 : 0,
                  r.probe ? 1 : 0, t.total_us(), t.user_exec_us,
                  t.log_gen_us, t.policy_eval_us, t.compaction_us,
                  (unsigned long long)r.id);
    out << buf << "\t" << policies << "\t" << TsvEscape(r.query_sql) << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

Status DecisionStore::LoadAudit(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("not an audit file: " + path);
  }
  bool v1 = line == kAuditHeaderV1;
  if (!v1 && line != kAuditHeader) {
    return Status::InvalidArgument("not an audit file: " + path);
  }
  const size_t expected_fields = v1 ? 11 : 12;
  std::vector<DecisionRecord> loaded;
  for (size_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    std::string where = path + ":" + std::to_string(line_no);
    std::vector<std::string> f = SplitEscaped(line, '\t');
    if (f.size() != expected_fields) {
      return Status::InvalidArgument("malformed audit line " + where);
    }
    DecisionRecord r;
    if (const char* bad = ParseAuditFields(f, v1, &r)) {
      return Status::InvalidArgument("malformed audit field " +
                                     std::string(bad) + " at " + where);
    }
    loaded.push_back(std::move(r));
  }
  for (DecisionRecord& r : loaded) {
    uint64_t last = records_.empty() ? 0 : records_.back().id;
    if (r.id <= last) r.id = std::max(next_id_, last + 1);
    next_id_ = std::max(next_id_, r.id + 1);
    Append(std::move(r));
  }
  return Status::OK();
}

void DecisionStore::Clear() {
  records_.clear();
  total_appended_ = 0;
  dropped_ = 0;
}

}  // namespace datalawyer
