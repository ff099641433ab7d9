#include <gtest/gtest.h>

#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class DataLawyerIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options = {}) {
    return std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
  }

  Database db_;
};

TEST_F(DataLawyerIntegrationTest, CompliantQueryPasses) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p2", PaperPolicies::P2()).ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl->Execute(PaperQueries::W1(), ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 1u);
}

TEST_F(DataLawyerIntegrationTest, JoinProhibitionRejects) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p2", PaperPolicies::P2()).ok());
  QueryContext ctx;
  ctx.uid = 1;
  // poe_order joined with d_patients: forbidden for uid 1.
  auto result = dl->Execute(
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id",
      ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsPolicyViolation())
      << result.status().ToString();

  // The same join is fine for uid 0.
  ctx.uid = 0;
  auto ok = dl->Execute(
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id",
      ctx);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  // poe_order joined with poe_med is always allowed.
  ctx.uid = 1;
  auto allowed = dl->Execute(
      "SELECT o.medication, m.dose FROM poe_order o, poe_med m "
      "WHERE o.order_id = m.order_id",
      ctx);
  EXPECT_TRUE(allowed.ok()) << allowed.status().ToString();
}

TEST_F(DataLawyerIntegrationTest, OutputSizeLimitRejects) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3(1, 50)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  // Returns all 200 tiny-config patients: above the 50-tuple limit.
  auto result = dl->Execute("SELECT * FROM d_patients", ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsPolicyViolation());

  // A selective query passes.
  auto ok = dl->Execute(PaperQueries::W1(), ctx);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(DataLawyerIntegrationTest, RejectedQueryLeavesNoLogTrace) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3(1, 50)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  ASSERT_FALSE(dl->Execute("SELECT * FROM d_patients", ctx).ok());
  // Eq. 1: on violation the log reverts to L_{t-1}.
  EXPECT_EQ(dl->usage_log()->main_table("users")->NumRows(), 0u);
  EXPECT_EQ(dl->usage_log()->main_table("provenance")->NumRows(), 0u);
  EXPECT_EQ(dl->usage_log()->delta_table("users")->NumRows(), 0u);
}

// A query that fails mid-pipeline — here a runtime error while its
// provenance is captured — must leave no staged increment behind. A
// relation left marked generated would be reused, at the failed query's
// ts, by the next query's checks: the users row would no longer join the
// provenance rows, and the next violation would slip through.
TEST_F(DataLawyerIntegrationTest, FailedQueryLeavesNoStagedIncrement) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3",
                            "SELECT DISTINCT 'too many' AS errormessage "
                            "FROM users u, provenance p "
                            "WHERE u.ts = p.ts AND p.irid = 'd_patients' "
                            "GROUP BY p.ts "
                            "HAVING COUNT(DISTINCT p.otid) > 5")
                  .ok());
  QueryContext two;
  two.uid = 2;
  auto failed = dl->Execute(
      "SELECT subject_id / 0 FROM d_patients WHERE subject_id < 3", two);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(failed.status().IsPolicyViolation())
      << failed.status().ToString();
  for (const char* rel : {"users", "schema", "provenance"}) {
    EXPECT_FALSE(dl->usage_log()->IsGenerated(rel)) << rel;
    EXPECT_EQ(dl->usage_log()->delta_table(rel)->NumRows(), 0u) << rel;
  }

  QueryContext one;
  one.uid = 1;
  auto over = dl->Execute(
      "SELECT subject_id FROM d_patients WHERE subject_id < 20", one);
  ASSERT_FALSE(over.ok()) << "admitted " << over->NumRows() << " rows";
  EXPECT_TRUE(over.status().IsPolicyViolation()) << over.status().ToString();
}

TEST_F(DataLawyerIntegrationTest, SlidingWindowRateLimit) {
  auto dl = Make();
  // At most 3 queries per 100 ticks for user 7 (clock steps 10/query).
  ASSERT_TRUE(
      dl->AddPolicy("rate", PaperPolicies::RateLimitForUser(7, 100, 3)).ok());
  QueryContext ctx;
  ctx.uid = 7;
  int rejected_at = -1;
  for (int i = 0; i < 6; ++i) {
    auto result = dl->Execute(PaperQueries::W1(), ctx);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsPolicyViolation());
      rejected_at = i;
      break;
    }
  }
  // Queries land at ts 10,20,30,40: the 4th brings the window count to 4>3.
  EXPECT_EQ(rejected_at, 3);

  // After the window slides past, the user can query again.
  for (int i = 0; i < 12; ++i) dl->clock()->Tick();
  auto later = dl->Execute(PaperQueries::W1(), ctx);
  EXPECT_TRUE(later.ok()) << later.status().ToString();
}

TEST_F(DataLawyerIntegrationTest, AllSixPaperPoliciesCompliantWorkload) {
  auto dl = Make();
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok()) << name;
  }
  for (int64_t uid : {0, 1}) {
    QueryContext ctx;
    ctx.uid = uid;
    for (const auto& [name, sql] : PaperQueries::All()) {
      auto result = dl->Execute(sql, ctx);
      EXPECT_TRUE(result.ok())
          << "uid=" << uid << " " << name << ": " << result.status().ToString();
    }
  }
}

TEST_F(DataLawyerIntegrationTest, PolicyAnalysisMatchesPaperTable) {
  auto dl = Make();
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok());
  }
  DataLawyerOptions opts;
  opts.enable_unification = false;  // inspect the raw six policies
  dl->set_options(opts);
  ASSERT_TRUE(dl->Prepare().ok());

  std::map<std::string, const Policy*> by_name;
  for (const Policy& p : dl->active_policies()) by_name[p.name] = &p;
  ASSERT_EQ(by_name.size(), 6u);

  // §5.3: policies 2, 3, 4 are time-independent; 1, 5, 6 are not.
  EXPECT_FALSE(by_name["p1"]->time_independent);
  EXPECT_TRUE(by_name["p2"]->time_independent);
  EXPECT_TRUE(by_name["p3"]->time_independent);
  EXPECT_TRUE(by_name["p4"]->time_independent);
  EXPECT_FALSE(by_name["p5"]->time_independent);
  EXPECT_FALSE(by_name["p6"]->time_independent);

  // §4.2.1: only P4's HAVING (count <= k) is non-monotone.
  EXPECT_TRUE(by_name["p1"]->monotone);
  EXPECT_TRUE(by_name["p2"]->monotone);
  EXPECT_TRUE(by_name["p3"]->monotone);
  EXPECT_FALSE(by_name["p4"]->monotone);
  EXPECT_TRUE(by_name["p5"]->monotone);
  EXPECT_TRUE(by_name["p6"]->monotone);

  // Log footprints (Table 2's description).
  EXPECT_EQ(by_name["p1"]->log_relations,
            (std::vector<std::string>{"users"}));
  EXPECT_EQ(by_name["p2"]->log_relations,
            (std::vector<std::string>{"users", "schema"}));
  EXPECT_EQ(by_name["p6"]->log_relations,
            (std::vector<std::string>{"users", "provenance"}));
}

TEST_F(DataLawyerIntegrationTest, NoOptAndOptimizedAgreeOnVerdicts) {
  // The optimizations must never change accept/reject decisions.
  for (int64_t uid : {0, 1}) {
    auto optimized = Make(DataLawyerOptions::AllOptimizations());
    auto baseline = Make(DataLawyerOptions::NoOpt());
    for (const auto& [name, sql] : PaperPolicies::All()) {
      ASSERT_TRUE(optimized->AddPolicy(name, sql).ok());
      ASSERT_TRUE(baseline->AddPolicy(name, sql).ok());
    }
    // A rate limit tight enough to trip mid-run.
    ASSERT_TRUE(optimized
                    ->AddPolicy("rate",
                                PaperPolicies::RateLimitForUser(uid, 200, 8))
                    .ok());
    ASSERT_TRUE(baseline
                    ->AddPolicy("rate",
                                PaperPolicies::RateLimitForUser(uid, 200, 8))
                    .ok());

    QueryContext ctx;
    ctx.uid = uid;
    auto queries = PaperQueries::All();
    for (int round = 0; round < 12; ++round) {
      const std::string& sql = queries[round % queries.size()].second;
      auto opt_result = optimized->Execute(sql, ctx);
      auto base_result = baseline->Execute(sql, ctx);
      EXPECT_EQ(opt_result.ok(), base_result.ok())
          << "uid=" << uid << " round=" << round
          << " optimized=" << opt_result.status().ToString()
          << " baseline=" << base_result.status().ToString();
      if (opt_result.ok() && base_result.ok()) {
        EXPECT_EQ(opt_result->NumRows(), base_result->NumRows());
      }
    }
  }
}

TEST_F(DataLawyerIntegrationTest, LogCompactionBoundsLogSize) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 1000)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  size_t max_provenance = 0;
  for (int i = 0; i < 100; ++i) {
    auto result = dl->Execute(PaperQueries::W1(), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    max_provenance = std::max(
        max_provenance, dl->usage_log()->main_table("provenance")->NumRows());
  }
  // The 300-tick window at 10 ticks/query covers 30 queries; W1's
  // provenance is 1 row per query. Compaction must keep the log near the
  // window size instead of the 100 rows NoOpt would accumulate.
  EXPECT_LE(max_provenance, 35u);

  auto noopt = Make(DataLawyerOptions::NoOpt());
  ASSERT_TRUE(noopt->AddPolicy("p6", PaperPolicies::P6(1, 300, 1000)).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(noopt->Execute(PaperQueries::W1(), ctx).ok());
  }
  EXPECT_EQ(noopt->usage_log()->main_table("provenance")->NumRows(), 100u);
}

TEST_F(DataLawyerIntegrationTest, TimeIndependentPoliciesPersistNothing) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3()).ok());
  ASSERT_TRUE(dl->AddPolicy("p4", PaperPolicies::P4()).ok());
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W2(), ctx).ok());
  }
  // Both policies are time-independent: the log never grows (§5.3).
  EXPECT_EQ(dl->usage_log()->main_table("users")->NumRows(), 0u);
  EXPECT_EQ(dl->usage_log()->main_table("provenance")->NumRows(), 0u);
}

TEST_F(DataLawyerIntegrationTest, InterleavedPrunesForOutOfScopeUser) {
  auto dl = Make();
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok());
  }
  QueryContext ctx;
  ctx.uid = 0;  // none of the uid=1 policies apply
  ASSERT_TRUE(dl->Execute(PaperQueries::W4(), ctx).ok());
  const ExecutionStats& stats = dl->last_stats();
  // For user 0, Users suffices to dismiss every policy: the expensive
  // Provenance log is neither generated for checking nor for compaction.
  EXPECT_GE(stats.policies_pruned_early, 4u);
  EXPECT_FALSE(dl->usage_log()->IsGenerated("provenance"));
  EXPECT_EQ(dl->usage_log()->main_table("provenance")->NumRows(), 0u);
}

TEST_F(DataLawyerIntegrationTest, UnificationMergesRateLimitFamily) {
  auto dl = Make();
  for (int64_t uid = 0; uid < 20; ++uid) {
    ASSERT_TRUE(dl->AddPolicy("rate" + std::to_string(uid),
                              PaperPolicies::RateLimitForUser(uid, 1000, 350))
                    .ok());
  }
  ASSERT_TRUE(dl->Prepare().ok());
  EXPECT_EQ(dl->active_policies().size(), 1u);

  QueryContext ctx;
  ctx.uid = 3;
  EXPECT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());

  // The unified policy still enforces each member: trip user 5's limit.
  auto strict = Make();
  for (int64_t uid = 0; uid < 20; ++uid) {
    ASSERT_TRUE(strict
                    ->AddPolicy("rate" + std::to_string(uid),
                                PaperPolicies::RateLimitForUser(uid, 1000, 2))
                    .ok());
  }
  QueryContext five;
  five.uid = 5;
  int rejected_at = -1;
  for (int i = 0; i < 5; ++i) {
    if (!strict->Execute(PaperQueries::W1(), five).ok()) {
      rejected_at = i;
      break;
    }
  }
  EXPECT_EQ(rejected_at, 2);
}

TEST_F(DataLawyerIntegrationTest, DdlBypassesPolicies) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3(1, 1)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl->Execute("CREATE TABLE scratch (x INT)", ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(dl->Execute("INSERT INTO scratch VALUES (1)", ctx).ok());
}

}  // namespace
}  // namespace datalawyer
