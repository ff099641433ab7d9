#include "system.h"

#include <algorithm>
#include <chrono>

#include "log/usage_log.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace enforcebench {

using datalawyer::QueryContext;
using datalawyer::QueryResult;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A rejection's status message joins the violated policies' messages with
// "; "; their order is an evaluation-strategy detail, so compare them as a
// sorted list.
std::string CanonicalMessage(const std::string& message) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (true) {
    size_t next = message.find("; ", pos);
    parts.push_back(message.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 2;
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += "; ";
    out += p;
  }
  return out;
}

void Record(const Status& st, const QueryResult* result, Outcome* out) {
  if (out == nullptr) return;
  out->verdict = st.ok()                    ? Outcome::kOk
                 : st.IsPolicyViolation()   ? Outcome::kRejected
                                            : Outcome::kError;
  out->message = st.ok() ? "" : CanonicalMessage(st.message());
  out->rows.clear();
  if (result == nullptr) return;
  for (const datalawyer::Row& row : result->rows) {
    out->rows.push_back(datalawyer::RowToString(row));
  }
  std::sort(out->rows.begin(), out->rows.end());
}

}  // namespace

Result<std::unique_ptr<System>> BuildSystem(
    const DataLawyerOptions& options) {
  auto sys = std::make_unique<System>();
  auto t0 = std::chrono::steady_clock::now();
  sys->db = std::make_unique<datalawyer::Database>();
  DL_RETURN_NOT_OK(
      datalawyer::LoadMimicData(sys->db.get(), datalawyer::MimicConfig{}));
  sys->load_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  auto clock = std::make_unique<datalawyer::ManualClock>(0, 10);
  sys->clock = clock.get();
  sys->dl = std::make_unique<DataLawyer>(
      sys->db.get(), datalawyer::UsageLog::WithStandardGenerators(),
      std::move(clock), options);
  for (const auto& [name, sql] : datalawyer::PaperPolicies::All()) {
    DL_RETURN_NOT_OK(sys->dl->AddPolicy(name, sql));
  }
  DL_RETURN_NOT_OK(sys->dl->Prepare());
  sys->prepare_s = SecondsSince(t0);
  return sys;
}

void RunOp(System* sys, const Op& op, Outcome* out) {
  QueryContext ctx;
  ctx.uid = op.uid;
  switch (op.kind) {
    case OpKind::kProbe:
      Record(sys->dl->WouldAllow(op.sql, ctx), nullptr, out);
      return;
    case OpKind::kAudit: {
      // Log reads are checked for success only: compaction legitimately
      // drops log rows the unoptimized oracle keeps.
      Result<QueryResult> result = sys->dl->QueryUsageLog(op.sql);
      Record(result.status(), nullptr, out);
      return;
    }
    default: {
      if (op.ticks > 0) sys->clock->set_step(op.ticks);
      Result<QueryResult> result = sys->dl->Execute(op.sql, ctx);
      Record(result.status(), result.ok() ? &*result : nullptr, out);
      return;
    }
  }
}

bool VerdictAsExpected(const Op& op, const Outcome& outcome) {
  return outcome.verdict ==
         (op.kind == OpKind::kReject ? Outcome::kRejected : Outcome::kOk);
}

size_t LogRowsRetained(DataLawyer* dl) {
  size_t rows = 0;
  datalawyer::UsageLog* log = dl->usage_log();
  for (const std::string& rel : log->RelationNamesInOrder()) {
    const datalawyer::Table* main = log->main_table(rel);
    if (main != nullptr) rows += main->NumRows();
  }
  return rows;
}

}  // namespace enforcebench
