#include "policy/calibration.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "analysis/binder.h"
#include "sql/parser.h"

namespace datalawyer {

Result<CalibrationResult> CalibrateGenerationOrder(
    UsageLog* log, Engine* engine,
    const std::vector<std::string>& sample_queries,
    const QueryContext& context) {
  if (sample_queries.empty()) {
    return Status::InvalidArgument("calibration needs at least one query");
  }

  std::map<std::string, double> total_ms;
  std::map<std::string, size_t> samples;

  int64_t scratch_ts = 1;
  for (const std::string& sql : sample_queries) {
    DL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                        Parser::ParseSelect(sql));
    Binder binder(engine->db_catalog());
    DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound,
                        binder.Bind(*stmt));
    UserQueryRun run(engine->db_catalog(), bound.get(), ExecOptions{});
    GenerationInput input;
    input.bound = bound.get();
    input.db_catalog = engine->db_catalog();
    input.run = &run;
    input.context = &context;

    for (const std::string& name : log->RelationNamesInOrder()) {
      auto t0 = std::chrono::steady_clock::now();
      DL_RETURN_NOT_OK(
          log->EnsureGenerated(name, scratch_ts, input).status());
      total_ms[name] += std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      ++samples[name];
    }
    log->DiscardStaged();
    ++scratch_ts;
  }

  CalibrationResult result;
  for (const auto& [name, total] : total_ms) {
    result.costs_ms.emplace_back(name, total / double(samples[name]));
  }
  std::sort(result.costs_ms.begin(), result.costs_ms.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  for (size_t i = 0; i < result.costs_ms.size(); ++i) {
    log->SetCostRank(result.costs_ms[i].first, double(i));
  }
  return result;
}

}  // namespace datalawyer
