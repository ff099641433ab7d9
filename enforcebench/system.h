#ifndef ENFORCEBENCH_SYSTEM_H_
#define ENFORCEBENCH_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/datalawyer.h"
#include "storage/database.h"
#include "stream.h"

namespace enforcebench {

using datalawyer::DataLawyer;
using datalawyer::DataLawyerOptions;
using datalawyer::Result;
using datalawyer::Status;

/// One DataLawyer deployment as the benchmark sets it up: the full synthetic
/// MIMIC dataset (MimicConfig defaults), all six Table-2 policies at their
/// default parameters, and a manual clock the stream steps per op.
struct System {
  std::unique_ptr<datalawyer::Database> db;
  datalawyer::ManualClock* clock = nullptr;  ///< owned by `dl`
  std::unique_ptr<DataLawyer> dl;
  double load_s = 0;     ///< LoadMimicData
  double prepare_s = 0;  ///< AddPolicy x6 + Prepare
};

/// Builds and prepares a system; `load_s` + `prepare_s` is one set-up.
Result<std::unique_ptr<System>> BuildSystem(const DataLawyerOptions& options);

/// What the client observed for one op: the verdict, the policy message
/// (or error text), and for SELECTs run by Execute the returned rows as a
/// sorted multiset.
struct Outcome {
  enum Verdict { kOk, kRejected, kError };
  Verdict verdict = kOk;
  std::string message;
  std::vector<std::string> rows;
};

/// Runs `op` through its public call (Execute / WouldAllow /
/// QueryUsageLog). Fills `out` when non-null.
void RunOp(System* sys, const Op& op, Outcome* out);

/// True when `outcome` is the verdict `op`'s kind must get: kReject ops are
/// rejected by a policy, every other op succeeds. Any other status (a
/// non-policy error) is a failed op.
bool VerdictAsExpected(const Op& op, const Outcome& outcome);

/// Usage-log rows kept in the main (committed) log relations.
size_t LogRowsRetained(DataLawyer* dl);

}  // namespace enforcebench

#endif  // ENFORCEBENCH_SYSTEM_H_
