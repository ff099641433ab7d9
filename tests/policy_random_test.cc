// End-to-end randomized properties. Policy sets are drawn from the template
// families and the paper's P1-P6, plus a forced same-template pair so that
// unification has something to merge. They are enforced over random query
// streams: point lookups, joins, aggregates, the paper's W1-W4, UNION,
// DISTINCT ON and ORDER BY ... LIMIT.
//
//  - OptimizedAgreesWithNoOptEverywhere: the fully optimized system and the
//    NoOpt baseline agree on every verdict, and the optimized log stays
//    bounded by the baseline's full history.
//  - KnobMatrixAgreesEverywhere: the oracle for the execution knobs. Every
//    combination of optimizer/costing, incremental evaluation, morsel
//    execution (fixed or adaptive sizing) and policy threads reproduces an
//    all-off reference byte-for-byte: statuses, user rows in order,
//    violations, decision records and the committed log.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/datalawyer.h"
#include "exec/executor.h"
#include "exec/plan_executor.h"
#include "policy/templates.h"
#include "sql/parser.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

struct RandomScenario {
  uint64_t seed;
};

class RandomPolicyScenarioTest
    : public ::testing::TestWithParam<RandomScenario> {};

using Policies = std::vector<std::pair<std::string, std::string>>;

int64_t Draw(std::mt19937_64* rng, int64_t lo, int64_t span) {
  return lo + int64_t((*rng)() % uint64_t(span));
}

std::string DrawPaperPolicy(std::mt19937_64* rng) {
  int64_t uid = Draw(rng, 0, 3);
  switch ((*rng)() % 6) {
    case 0:
      return PaperPolicies::P1(Draw(rng, 50, 200), "X", Draw(rng, 0, 2));
    case 1:
      return PaperPolicies::P2(uid);
    case 2:
      return PaperPolicies::P3(uid, Draw(rng, 20, 200));
    case 3:
      return PaperPolicies::P4(uid, Draw(rng, 1, 4));
    case 4:
      return PaperPolicies::P5(uid, Draw(rng, 50, 300), Draw(rng, 50, 150));
    default:
      return PaperPolicies::P6(uid, Draw(rng, 50, 300), Draw(rng, 2, 10));
  }
}

Policies DrawPolicies(std::mt19937_64* rng) {
  Policies out;
  int n = 2 + int((*rng)() % 4);
  for (int i = 0; i < n; ++i) {
    std::string name = "rp" + std::to_string(i);
    switch ((*rng)() % 9) {
      case 0:
        out.emplace_back(name, PolicyTemplates::RateLimit(
                                   Draw(rng, 100, 400), Draw(rng, 2, 6),
                                   Draw(rng, 0, 3)));
        break;
      case 1:
        out.emplace_back(name, PolicyTemplates::JoinProhibition(
                                   "poe_order", {"poe_med"}, Draw(rng, 0, 3)));
        break;
      case 2:
        out.emplace_back(name, PolicyTemplates::OutputRowCap(
                                   "d_patients", Draw(rng, 20, 300)));
        break;
      case 3:
        out.emplace_back(name, PolicyTemplates::WindowedDistinctTupleCap(
                                   "d_patients", Draw(rng, 200, 600),
                                   Draw(rng, 30, 300), Draw(rng, 0, 3)));
        break;
      case 4:
        out.emplace_back(name, PolicyTemplates::TupleReuseCap(
                                   "d_patients", Draw(rng, 200, 400),
                                   Draw(rng, 3, 20)));
        break;
      case 5:
        out.emplace_back(name, PolicyTemplates::GroupLicense(
                                   "X", "d_patients", Draw(rng, 300, 500), 1));
        break;
      case 6:
        out.emplace_back(name, PolicyTemplates::MinimumSupport(
                                   "chartevents", Draw(rng, 1, 4),
                                   Draw(rng, 0, 3)));
        break;
      case 7:
        out.emplace_back(
            name, (*rng)() % 2 == 0
                      ? PolicyTemplates::AggregationBan("d_patients")
                      : PolicyTemplates::AggregationBan("d_patients",
                                                        {"chartevents"}));
        break;
      default:
        out.emplace_back(name, DrawPaperPolicy(rng));
        break;
    }
  }
  // Two policies of one template that differ only in constants: what
  // unification merges over a Constants table.
  int64_t window = Draw(rng, 100, 300);
  int64_t threshold = Draw(rng, 2, 6);
  out.emplace_back("rate0",
                   PaperPolicies::RateLimitForUser(0, window, threshold));
  out.emplace_back("rate1",
                   PaperPolicies::RateLimitForUser(1, window, threshold));
  return out;
}

std::string DrawQuery(std::mt19937_64* rng) {
  switch ((*rng)() % 10) {
    case 0:
      return PaperQueries::W1();
    case 1:
      return "SELECT * FROM d_patients WHERE subject_id < " +
             std::to_string(Draw(rng, 5, 120));
    case 2:
      return "SELECT o.medication, m.dose FROM poe_order o, poe_med m "
             "WHERE o.order_id = m.order_id AND o.order_id = " +
             std::to_string(Draw(rng, 0, 100));
    case 3:
      return "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
             "WHERE o.subject_id = p.subject_id AND o.order_id = " +
             std::to_string(Draw(rng, 0, 100));
    case 4:
      return "SELECT c.subject_id, COUNT(*) FROM chartevents c "
             "WHERE c.subject_id < 30 AND c.itemid = 211 "
             "GROUP BY c.subject_id";
    case 5:
      return "SELECT p.sex, COUNT(*) FROM d_patients p GROUP BY p.sex";
    case 6:
      return PaperQueries::All()[size_t(Draw(rng, 1, 3))].second;  // W2-W4
    case 7:
      return "SELECT p.subject_id FROM d_patients p WHERE p.subject_id < " +
             std::to_string(Draw(rng, 5, 60)) +
             " UNION SELECT o.subject_id FROM poe_order o "
             "WHERE o.order_id < " +
             std::to_string(Draw(rng, 5, 60));
    case 8:
      return "SELECT DISTINCT ON (c.subject_id) c.subject_id, c.itemid, "
             "c.value1 FROM chartevents c WHERE c.subject_id < " +
             std::to_string(Draw(rng, 5, 60));
    default:
      return "SELECT p.subject_id, p.sex FROM d_patients p "
             "WHERE p.subject_id > " +
             std::to_string(Draw(rng, 0, 150)) +
             " ORDER BY p.subject_id DESC LIMIT " +
             std::to_string(Draw(rng, 1, 40));
  }
}

struct Step {
  QueryContext ctx;
  std::string sql;
};

std::vector<Step> DrawStream(std::mt19937_64* rng, int length) {
  std::vector<Step> stream(static_cast<size_t>(length));
  for (Step& step : stream) {
    step.ctx.uid = Draw(rng, 0, 3);
    step.sql = DrawQuery(rng);
  }
  return stream;
}

TEST_P(RandomPolicyScenarioTest, OptimizedAgreesWithNoOptEverywhere) {
  std::mt19937_64 rng(GetParam().seed);
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  Policies policies = DrawPolicies(&rng);
  DataLawyer optimized(&db, UsageLog::WithStandardGenerators(),
                       std::make_unique<ManualClock>(0, 10),
                       DataLawyerOptions::AllOptimizations());
  DataLawyer baseline(&db, UsageLog::WithStandardGenerators(),
                      std::make_unique<ManualClock>(0, 10),
                      DataLawyerOptions::NoOpt());
  for (const auto& [name, sql] : policies) {
    ASSERT_TRUE(optimized.AddPolicy(name, sql).ok()) << sql;
    ASSERT_TRUE(baseline.AddPolicy(name, sql).ok()) << sql;
  }

  std::vector<Step> stream = DrawStream(&rng, 40);
  for (size_t step = 0; step < stream.size(); ++step) {
    const Step& s = stream[step];
    auto a = optimized.Execute(s.sql, s.ctx);
    auto b = baseline.Execute(s.sql, s.ctx);
    ASSERT_EQ(a.ok(), b.ok())
        << "seed " << GetParam().seed << " step " << step << " uid "
        << s.ctx.uid << "\n  query: " << s.sql
        << "\n  optimized: " << a.status().ToString()
        << "\n  baseline:  " << b.status().ToString();
    if (a.ok()) {
      ASSERT_EQ(a->NumRows(), b->NumRows());
    }
  }

  // The optimized log never exceeds the baseline's full history.
  size_t optimized_rows = 0, baseline_rows = 0;
  for (const char* rel : {"users", "schema", "provenance"}) {
    optimized_rows += optimized.usage_log()->main_table(rel)->NumRows();
    baseline_rows += baseline.usage_log()->main_table(rel)->NumRows();
  }
  EXPECT_LE(optimized_rows, baseline_rows);
}

// One point of the knob matrix.
struct Knobs {
  bool optimizer = false;
  bool costing = false;
  bool incremental = false;
  int exec_threads = 0;
  bool adaptive = false;
  int policy_threads = 0;

  std::string Label() const {
    return std::string(optimizer ? "O" : "-") + (costing ? "C" : "-") +
           (incremental ? "I" : "-") + " exec_threads=" +
           std::to_string(exec_threads) + (adaptive ? " adaptive" : "") +
           " policy_threads=" + std::to_string(policy_threads);
  }

  DataLawyerOptions Apply(DataLawyerOptions options) const {
    options.enable_optimizer = optimizer;
    options.enable_stats_costing = costing;
    options.enable_incremental_eval = incremental;
    options.exec_threads = exec_threads;
    options.morsel_size = 16;  // the Tiny tables split into morsels
    options.adaptive_morsel_size = adaptive;
    options.policy_threads = policy_threads;
    return options;
  }
};

// Every combination the options can express: optimizer/costing off/off,
// on/off or on/on (costing requires the optimizer) x incremental off/on x
// morsels off, fixed-size or adaptive x policy threads 0/4 = 36.
std::vector<Knobs> KnobMatrix() {
  std::vector<Knobs> matrix;
  for (int planner = 0; planner < 3; ++planner) {
    for (bool incremental : {false, true}) {
      for (int morsels = 0; morsels < 3; ++morsels) {
        for (int policy_threads : {0, 4}) {
          Knobs k;
          k.optimizer = planner >= 1;
          k.costing = planner == 2;
          k.incremental = incremental;
          k.exec_threads = morsels == 0 ? 0 : 4;
          k.adaptive = morsels == 2;
          k.policy_threads = policy_threads;
          matrix.push_back(k);
        }
      }
    }
  }
  return matrix;
}

// What one stream observably did under one configuration.
struct StreamOutcome {
  struct StepOutcome {
    std::string status;
    std::vector<Row> rows;
    std::vector<std::string> violations;
    std::string decision;  // last decision: verdict, messages, witnesses
  };
  std::vector<StepOutcome> steps;
  std::vector<std::vector<Row>> log;  // committed log, relation by relation
  std::string explain;                // ExplainPolicy of every active policy
  std::string user_plans;             // EXPLAIN of W1-W4 through Execute
  std::string executor_plans;         // the same, from a plain Executor
  size_t active_policies = 0;
  bool any_incremental = false;
  uint64_t incremental_hits = 0;
  uint64_t morsels = 0;
  size_t suggested_scan_morsel = 0;
};

std::string RenderDecision(const DecisionRecord& record) {
  std::string out = record.verdict();
  for (const std::string& m : record.messages) out += "|" + m;
  for (const DecisionWitness& w : record.witnesses) {
    out += "\n  " + w.relation + "#" + std::to_string(w.row_id) +
           (w.from_increment ? " inc" : " main") + " ts " +
           std::to_string(w.ts);
    for (const std::string& v : w.values) out += " " + v;
  }
  out += "\n  truncated " + std::to_string(record.witnesses_truncated);
  return out;
}

std::string RenderRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) out += RowToString(row) + "\n";
  return out;
}

StreamOutcome RunStream(Database* db, const Policies& policies,
                        const std::vector<Step>& stream,
                        const DataLawyerOptions& options) {
  StreamOutcome out;
  DataLawyer dl(db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (const auto& [name, sql] : policies) {
    Status added = dl.AddPolicy(name, sql);
    EXPECT_TRUE(added.ok()) << sql << ": " << added.ToString();
  }
  for (const Step& step : stream) {
    Result<QueryResult> result = dl.Execute(step.sql, step.ctx);
    StreamOutcome::StepOutcome s;
    s.status = result.status().ToString();
    if (result.ok()) s.rows = std::move(result->rows);
    s.violations = dl.last_stats().violations;
    const auto& records = dl.decision_store().records();
    if (!records.empty()) s.decision = RenderDecision(records.back());
    out.steps.push_back(std::move(s));
    out.incremental_hits += dl.last_stats().incremental_hits;
    out.morsels += dl.last_stats().morsels;
  }
  for (const std::string& rel : dl.usage_log()->RelationNamesInOrder()) {
    const Table* main = dl.usage_log()->main_table(rel);
    out.log.emplace_back();
    if (main == nullptr) continue;
    for (size_t i = 0; i < main->NumRows(); ++i) {
      out.log.back().push_back(main->RowAt(i));
    }
  }
  for (const Policy& policy : dl.active_policies()) {
    Result<std::string> plan = dl.ExplainPolicy(policy.name);
    out.explain += policy.name + ":\n" +
                   (plan.ok() ? *plan : plan.status().ToString());
  }
  // The user query is planned with the instance's planner options: its
  // EXPLAIN is what a plain Executor with the same options renders.
  DatabaseCatalog catalog(db);
  ExecOptions planner_options;
  planner_options.enable_optimizer = options.enable_optimizer;
  planner_options.enable_stats_costing = options.enable_stats_costing;
  for (const auto& [name, sql] : PaperQueries::All()) {
    Result<QueryResult> shown = dl.Execute("EXPLAIN " + sql, QueryContext{});
    out.user_plans += name + ":\n";
    if (shown.ok()) {
      for (const Row& row : shown->rows) {
        out.user_plans += row[0].AsString() + "\n";
      }
    } else {
      out.user_plans += shown.status().ToString();
    }
    auto stmt = Parser::ParseSelect(sql);
    Result<std::string> plan =
        Executor(&catalog, planner_options).Explain(**stmt);
    out.executor_plans +=
        name + ":\n" + (plan.ok() ? *plan : plan.status().ToString());
  }
  out.active_policies = dl.active_policies().size();
  for (const PolicyStats& s : dl.PolicyReport()) {
    if (s.incremental_class == "incremental") out.any_incremental = true;
  }
  out.suggested_scan_morsel =
      dl.morsel_feedback().SuggestedSize(MorselClass::kScan);
  return out;
}

// The oracle for the execution knobs: each seed's stream runs under an
// all-off reference (optimizer, costing and incremental evaluation off,
// serial execution, serial policy checks) and under each of the 36 knob
// combinations, all over the same base options. Even seeds use the
// AllOptimizations base; odd seeds also turn compaction, preemptive
// compaction and unification off, so that incremental state survives long
// enough to serve verdicts.
TEST_P(RandomPolicyScenarioTest, KnobMatrixAgreesEverywhere) {
  const uint64_t seed = GetParam().seed;
  std::mt19937_64 rng(seed);
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  Policies policies = DrawPolicies(&rng);
  std::vector<Step> stream = DrawStream(&rng, 16);

  DataLawyerOptions base = DataLawyerOptions::AllOptimizations();
  if (seed % 2 == 1) {
    base.enable_log_compaction = false;
    base.enable_preemptive_compaction = false;
    base.enable_unification = false;
  }
  const StreamOutcome reference =
      RunStream(&db, policies, stream, Knobs{}.Apply(base));
  if (base.enable_unification) {
    EXPECT_LT(reference.active_policies, policies.size())
        << "seed " << seed << ": the same-template pair was not unified";
  }

  // ExplainPolicy text per optimizer/costing level, from the first
  // configuration at that level.
  std::string explain[3];
  for (const Knobs& knobs : KnobMatrix()) {
    const std::string where =
        "seed " + std::to_string(seed) + " [" + knobs.Label() + "]";
    const StreamOutcome got =
        RunStream(&db, policies, stream, knobs.Apply(base));
    ASSERT_EQ(got.steps.size(), reference.steps.size()) << where;
    for (size_t i = 0; i < got.steps.size(); ++i) {
      const auto& a = got.steps[i];
      const auto& b = reference.steps[i];
      const std::string at = where + " step " + std::to_string(i) + " uid " +
                             std::to_string(stream[i].ctx.uid) + "\n  " +
                             stream[i].sql;
      ASSERT_EQ(a.status, b.status) << at;
      ASSERT_TRUE(a.rows == b.rows)
          << at << "\n  got:\n" << RenderRows(a.rows) << "  reference:\n"
          << RenderRows(b.rows);
      ASSERT_EQ(a.violations, b.violations) << at;
      ASSERT_EQ(a.decision, b.decision) << at;
    }
    ASSERT_EQ(got.log.size(), reference.log.size()) << where;
    for (size_t r = 0; r < got.log.size(); ++r) {
      ASSERT_TRUE(got.log[r] == reference.log[r])
          << where << " log relation #" << r << "\n  got:\n"
          << RenderRows(got.log[r]) << "  reference:\n"
          << RenderRows(reference.log[r]);
    }

    EXPECT_EQ(got.user_plans, got.executor_plans) << where;

    // Non-vacuity: each knob demonstrably changed how the stream ran.
    if (knobs.incremental && got.any_incremental) {
      EXPECT_GT(got.incremental_hits, 0u) << where;
    }
    if (!knobs.incremental) {
      EXPECT_EQ(got.incremental_hits, 0u) << where;
    }
    if (knobs.exec_threads > 0) {
      EXPECT_GT(got.morsels, 0u) << where;
    } else {
      EXPECT_EQ(got.morsels, 0u) << where;
    }
    if (knobs.adaptive) {
      EXPECT_GT(got.suggested_scan_morsel, 0u) << where;
    }
    int level = knobs.costing ? 2 : knobs.optimizer ? 1 : 0;
    if (explain[level].empty()) explain[level] = got.explain;
  }
  // The planner knobs reach the planner: with the optimizer off, and with
  // costing off, some policy renders a different plan than by default.
  EXPECT_NE(explain[0], explain[2]) << "seed " << seed;
  EXPECT_NE(explain[1], explain[2]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomPolicyScenarioTest,
    ::testing::Values(RandomScenario{101}, RandomScenario{202},
                      RandomScenario{303}, RandomScenario{404},
                      RandomScenario{505}, RandomScenario{606},
                      RandomScenario{707}, RandomScenario{808},
                      RandomScenario{909}, RandomScenario{1010}));

}  // namespace
}  // namespace datalawyer
