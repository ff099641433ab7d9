#include "exec/user_query_run.h"

#include <chrono>

#include "common/trace.h"
#include "exec/executor.h"

namespace datalawyer {

Result<QueryResult> UserQueryRun::Execute(bool capture_lineage) {
  DL_TRACE_SPAN("exec.user_query", "exec");
  auto t0 = std::chrono::steady_clock::now();
  ExecOptions options = options_;
  options.capture_lineage = capture_lineage;
  Executor executor(catalog_, options);
  Result<QueryResult> result = executor.ExecuteBound(*bound_);
  std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - t0;
  cost_.ms += elapsed.count();
  cost_.morsels += executor.scan_stats().morsels;
  return result;
}

Result<const QueryResult*> UserQueryRun::Lineage() {
  if (!captured_) {
    captured_ = true;
    Result<QueryResult> result = Execute(/*capture_lineage=*/true);
    if (result.ok()) {
      result_ = std::move(*result);
    } else {
      status_ = result.status();
    }
  }
  DL_RETURN_NOT_OK(status_);
  if (lineage_released_) {
    return Status::Internal("the user query's lineage was already released");
  }
  return &result_;
}

void UserQueryRun::ReleaseLineage() {
  lineage_released_ = true;
  std::vector<LineageSet>().swap(result_.lineage);
  std::vector<std::string>().swap(result_.base_relations);
}

Result<QueryResult> UserQueryRun::TakeAnswer() {
  if (!captured_) return Execute(/*capture_lineage=*/false);
  DL_RETURN_NOT_OK(status_);
  QueryResult answer;
  answer.schema = std::move(result_.schema);
  answer.rows = std::move(result_.rows);
  return answer;
}

UserQueryRun::Cost UserQueryRun::TakeCost() {
  Cost cost = cost_;
  cost_ = Cost{};
  return cost;
}

}  // namespace datalawyer
