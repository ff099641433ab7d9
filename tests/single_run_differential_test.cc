// Differential property for the single user-query run: a checked query
// binds its statement once and executes it at most once — f_Provenance's
// lineage-capturing execution also produces the admitted answer. Random
// streams of W1–W4-shaped queries, dl_* reads, runtime-error queries and
// WouldAllow probes, issued by the watched user 1 and by others with P1–P6
// loaded (and, for the plain answer path, with P1–P2 only), run under
// exec_threads {0, 4} x {interleaved, NoOpt}. Every op is checked against
// independent executions on the same state:
//  * the answer equals a plain Executor run (schema, rows) and carries no
//    lineage;
//  * the staged provenance rows equal an independent capture_lineage run's;
//  * a runtime error carries exactly the plain run's status;
//  * the query ran at most once, and not at all when a rejection or probe
//    never reached provenance;
// and verdicts agree across the four configurations (statuses, messages
// included, across thread counts).

#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "core/datalawyer.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

/// f_Provenance plus a copy of what it staged for the current op.
class RecordingProvenance : public LogGenerator {
 public:
  struct Record {
    bool ran = false;
    Status status = Status::OK();
    std::vector<Row> rows;
  };

  explicit RecordingProvenance(Record* sink) : sink_(sink) {}

  const std::string& relation_name() const override {
    return inner_.relation_name();
  }
  const TableSchema& schema() const override { return inner_.schema(); }
  int cost_rank() const override { return inner_.cost_rank(); }

  Result<std::vector<Row>> Generate(const GenerationInput& input) override {
    Result<std::vector<Row>> rows = inner_.Generate(input);
    sink_->ran = true;
    sink_->status = rows.status();
    if (rows.ok()) sink_->rows = *rows;
    return rows;
  }

 private:
  ProvenanceLogGenerator inner_;
  Record* sink_;
};

struct System {
  std::string name;
  bool noopt = false;
  RecordingProvenance::Record provenance;
  std::unique_ptr<DataLawyer> dl;
};

std::string N(uint64_t v) { return std::to_string(v); }

/// P1–P6 with thresholds the random streams reach; without the provenance
/// policies (P3–P6) no generator needs lineage and every answer is a plain
/// execution.
std::unique_ptr<System> MakeSystem(Database* db, int exec_threads, bool noopt,
                                   bool provenance_policies = true) {
  auto sys = std::make_unique<System>();
  sys->name = noopt ? "noopt" : "interleaved";
  sys->name += "/exec_threads=" + N(exec_threads);
  sys->noopt = noopt;

  std::vector<std::unique_ptr<LogGenerator>> generators;
  generators.push_back(std::make_unique<UsersLogGenerator>());
  generators.push_back(std::make_unique<SchemaLogGenerator>());
  generators.push_back(std::make_unique<RecordingProvenance>(&sys->provenance));
  auto log = std::make_unique<UsageLog>();
  for (std::unique_ptr<LogGenerator>& generator : generators) {
    EXPECT_TRUE(log->RegisterGenerator(std::move(generator)).ok());
  }

  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  if (noopt) options = DataLawyerOptions::NoOpt();
  options.exec_threads = exec_threads;
  options.morsel_size = 64;  // the tiny tables still split into morsels
  options.adaptive_morsel_size = false;
  sys->dl = std::make_unique<DataLawyer>(
      db, std::move(log), std::make_unique<ManualClock>(0, 10), options);

  std::vector<std::pair<std::string, std::string>> policies;
  policies.emplace_back("p1", PaperPolicies::P1());
  policies.emplace_back("p2", PaperPolicies::P2(1));
  if (provenance_policies) {
    policies.emplace_back("p3", PaperPolicies::P3(1, 40));
    policies.emplace_back("p4", PaperPolicies::P4(1, 3));
    policies.emplace_back("p5", PaperPolicies::P5(1, 400, 120));
    policies.emplace_back("p6", PaperPolicies::P6(1, 300, 4));
  }
  for (const auto& [name, sql] : policies) {
    EXPECT_TRUE(sys->dl->AddPolicy(name, sql).ok()) << name;
  }
  return sys;
}

/// `sql` with each placeholder $1, $2, ... replaced by the matching value.
std::string Fill(std::string sql, std::vector<uint64_t> values) {
  for (size_t i = 0; i < values.size(); ++i) {
    std::string key = "$" + N(i + 1);
    sql.replace(sql.find(key), key.size(), N(values[i]));
  }
  return sql;
}

std::string DrawQuery(std::mt19937_64* rng) {
  std::mt19937_64& r = *rng;
  switch (r() % 14) {
    case 0:
      return PaperQueries::W1();
    case 1:
      return PaperQueries::W2();
    case 2:
      return PaperQueries::W3();
    case 3: {  // a W2–W4-shaped patient range
      uint64_t lo = r() % 150;
      uint64_t hi = lo + 5 + r() % 60;
      return Fill(
          "SELECT c.subject_id, p.sex, COUNT(c.subject_id) "
          "FROM chartevents c, d_patients p "
          "WHERE c.subject_id < $1 AND c.subject_id > $2 "
          "AND p.subject_id = c.subject_id AND c.itemid = 211 "
          "GROUP BY c.subject_id, p.sex HAVING COUNT(c.subject_id) > 1",
          {hi, lo});
    }
    case 4: {
      uint64_t k = 3 + r() % 60;
      return Fill("SELECT * FROM d_patients WHERE subject_id < $1", {k});
    }
    case 5: {  // every output tuple has one chartevents input: P4 for uid 1
      uint64_t k = r() % 200;
      return Fill("SELECT * FROM chartevents WHERE subject_id = $1", {k});
    }
    case 6:  // poe_order joined with d_patients: P2 for uid 1
      return Fill(
          "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
          "WHERE o.subject_id = p.subject_id AND o.order_id < $1",
          {1 + r() % 40});
    case 7:
      return "SELECT * FROM dl_decisions";
    case 8:
      return "SELECT policy, evaluations, rejections FROM dl_policy_stats";
    case 9:  // a runtime error when subject $1 is reached (if $1 < 40)
      return Fill(
          "SELECT subject_id / (subject_id - $1) "
          "FROM d_patients WHERE subject_id < 40",
          {r() % 50});
    case 10:  // the same inside an aggregate input
      return Fill(
          "SELECT c.subject_id, SUM(c.value1 / (c.subject_id - $1)) "
          "FROM chartevents c WHERE c.subject_id < 30 "
          "GROUP BY c.subject_id",
          {r() % 40});
    case 11:
      return Fill(
          "SELECT c.itemid, AVG(c.value1), MIN(c.value1), COUNT(*) "
          "FROM chartevents c WHERE c.subject_id < $1 GROUP BY c.itemid",
          {10 + r() % 100});
    case 12:
      return Fill(
          "SELECT DISTINCT p.sex FROM d_patients p WHERE p.subject_id < $1",
          {2 + r() % 30});
    default: {
      uint64_t below = 20 + r() % 100;
      uint64_t limit = 1 + r() % 10;
      return Fill(
          "SELECT subject_id, sex FROM d_patients WHERE subject_id < $1 "
          "ORDER BY sex, subject_id DESC LIMIT $2",
          {below, limit});
    }
  }
}

/// The rows f_Provenance stages for `result` (without the ts column).
std::vector<Row> ProvenanceRows(const QueryResult& result) {
  std::vector<Row> rows;
  for (size_t otid = 0; otid < result.rows.size(); ++otid) {
    for (const LineageEntry& entry : result.lineage[otid]) {
      rows.push_back(Row{Value(int64_t(otid)),
                         Value(result.base_relations[entry.rel]),
                         Value(entry.row_id)});
    }
  }
  return rows;
}

size_t UserQueryRuns() {
  size_t runs = 0;
  for (const TraceEvent& e : Tracer::Global().Snapshot()) {
    if (e.name == "exec.user_query") ++runs;
  }
  return runs;
}

struct Scenario {
  uint64_t seed;
  bool provenance_policies;
};
const Scenario kScenarios[] = {{1, true}, {2, true}, {3, true}, {4, false}};

class SingleRunDifferentialTest : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
  }
};

TEST_P(SingleRunDifferentialTest, OneRunMatchesIndependentExecutions) {
  const uint64_t seed = GetParam().seed;
  const bool provenance_policies = GetParam().provenance_policies;
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  std::vector<std::unique_ptr<System>> systems;
  for (bool noopt : {false, true}) {
    for (int threads : {0, 4}) {
      systems.push_back(MakeSystem(&db, threads, noopt, provenance_policies));
    }
  }

  std::mt19937_64 rng(seed);
  size_t captured = 0, answered_from_capture = 0;
  for (int step = 0; step < 60; ++step) {
    QueryContext ctx;
    ctx.uid = rng() % 2 == 0 ? 1 : int64_t(rng() % 3);
    const bool probe = rng() % 6 == 0;
    const std::string sql = DrawQuery(&rng);
    auto parsed = Parser::ParseSelect(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    const SelectStmt& stmt = **parsed;
    const std::string where = "seed " + N(seed) + " step " + N(step);

    std::vector<Status> verdicts;
    for (std::unique_ptr<System>& sys : systems) {
      std::string op = probe ? "WouldAllow" : "Execute";
      op += " by uid " + std::to_string(ctx.uid) + ": " + sql;
      SCOPED_TRACE(where + " " + sys->name + "\n  " + op);
      sys->provenance = RecordingProvenance::Record{};
      Tracer::Global().Clear();
      auto start = std::chrono::steady_clock::now();
      Result<QueryResult> result = QueryResult{};
      if (probe) {
        Status allowed = sys->dl->WouldAllow(sql, ctx);
        if (!allowed.ok()) result = allowed;
      } else {
        result = sys->dl->Execute(sql, ctx);
      }
      std::chrono::duration<double, std::milli> wall =
          std::chrono::steady_clock::now() - start;
      const size_t runs = UserQueryRuns();
      const ExecutionStats& stats = sys->dl->last_stats();
      const RecordingProvenance::Record& prov = sys->provenance;
      verdicts.push_back(result.status());

      // Independent executions on the state the op saw: base tables do not
      // change, and the dl_* snapshots the op materialized stay cached
      // until the next checked query. They plan as the instance does (row
      // order follows the join order the planner options pick).
      const CatalogView* catalog = sys->dl->system_catalog();
      ExecOptions plain_options;
      plain_options.enable_optimizer = sys->dl->options().enable_optimizer;
      plain_options.enable_stats_costing =
          sys->dl->options().enable_stats_costing;
      Result<QueryResult> plain =
          Executor(catalog, plain_options).Execute(stmt);
      ExecOptions capture_options = plain_options;
      capture_options.capture_lineage = true;
      Result<QueryResult> capture =
          Executor(catalog, capture_options).Execute(stmt);
      ASSERT_EQ(plain.status().ToString(), capture.status().ToString());

      // At most one execution; none when provenance was never generated
      // and the query was not answered.
      ASSERT_LE(runs, 1u);
      const bool answered = !probe && !result.status().IsPolicyViolation();
      ASSERT_EQ(runs, (prov.ran || answered) ? 1u : 0u);
      // The run is user-query time wherever it happened (a rejected query
      // whose capture ran included).
      ASSERT_EQ(stats.query_exec_ms > 0.0, runs == 1);
      if (prov.ran) {
        ++captured;
        ASSERT_EQ(prov.status.ToString(), capture.status().ToString());
        if (prov.status.ok()) {
          ASSERT_EQ(prov.rows, ProvenanceRows(*capture));
        }
        if (answered && result.ok()) ++answered_from_capture;
      }

      if (!probe && result.ok()) {
        ASSERT_TRUE(plain.ok());
        ASSERT_EQ(result->schema.columns().size(),
                  plain->schema.columns().size());
        for (size_t c = 0; c < plain->schema.columns().size(); ++c) {
          ASSERT_EQ(result->schema.columns()[c].name,
                    plain->schema.columns()[c].name);
          ASSERT_EQ(result->schema.columns()[c].type,
                    plain->schema.columns()[c].type);
        }
        ASSERT_EQ(result->rows, plain->rows);
        ASSERT_FALSE(result->has_lineage);
        ASSERT_TRUE(result->lineage.empty());
        ASSERT_TRUE(result->base_relations.empty());
      } else if (!result.ok() && !result.status().IsPolicyViolation()) {
        ASSERT_EQ(result.status().ToString(), plain.status().ToString());
      }

      // The shared run's time is charged once, to the user query: no phase
      // goes negative, the phases sum to the total, and the total fits in
      // the call's wall time (a double count would exceed it).
      ASSERT_GE(stats.log_gen_ms, 0.0);
      PhaseTimings t = PhaseTimings::FromStats(stats);
      ASSERT_NEAR(t.total_us(), stats.total_ms() * 1000.0,
                  1e-6 * std::max(1.0, t.total_us()));
      ASSERT_LE(stats.total_ms(), wall.count());
    }

    // Statuses agree across thread counts. Across strategies the verdict
    // agrees, but a violation's messages may not (NoOpt's union statement
    // reports every violated policy, interleaved evaluation the first one
    // it finds), and neither may a probe's: a probe that never reaches
    // provenance does not run the query, so whether it sees a runtime error
    // depends on the strategy's generation order.
    for (size_t i = 1; i < systems.size(); ++i) {
      const Status& same_strategy = verdicts[systems[i]->noopt ? 2 : 0];
      SCOPED_TRACE(where + " " + systems[i]->name + ": " + sql);
      ASSERT_EQ(verdicts[i].ToString(), same_strategy.ToString());
      if (probe) continue;
      ASSERT_EQ(verdicts[i].code(), verdicts[0].code());
      if (!verdicts[i].IsPolicyViolation()) {
        ASSERT_EQ(verdicts[i].ToString(), verdicts[0].ToString());
      }
    }
  }
  // The streams must exercise the path they are meant for: the shared run
  // with the provenance policies, the plain answer without them.
  if (provenance_policies) {
    EXPECT_GT(captured, 0u);
    EXPECT_GT(answered_from_capture, 0u);
  } else {
    EXPECT_EQ(captured, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleRunDifferentialTest,
                         ::testing::ValuesIn(kScenarios));

// dl_* relations are snapshotted when the query is bound, before its own
// decision is recorded, so the one execution never sees its own decision —
// also when that execution is provenance capture for the watched user.
TEST(SingleRunDlSnapshotTest, QueryNeverSeesItsOwnDecision) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  std::unique_ptr<System> sys = MakeSystem(&db, 0, /*noopt=*/false);
  QueryContext ctx;
  ctx.uid = 1;
  ASSERT_TRUE(sys->dl->Execute(PaperQueries::W1(), ctx).ok());
  ASSERT_TRUE(sys->dl->Execute(PaperQueries::W2(), ctx).ok());
  for (int i = 0; i < 3; ++i) {
    sys->provenance = RecordingProvenance::Record{};
    auto result = sys->dl->Execute("SELECT * FROM dl_decisions", ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // uid 1 is watched by P3–P6: the answer is the capturing run's.
    EXPECT_TRUE(sys->provenance.ran);
    EXPECT_TRUE(sys->provenance.status.ok());
    const auto& records = sys->dl->decision_store().records();
    const DecisionRecord& own = records.back();
    EXPECT_EQ(own.query_sql, "SELECT * FROM dl_decisions");
    EXPECT_EQ(result->NumRows(), records.size() - 1);
    for (const Row& row : result->rows) {
      EXPECT_LT(row[0].AsInt64(), int64_t(own.id));
    }
  }
}

}  // namespace
}  // namespace datalawyer
