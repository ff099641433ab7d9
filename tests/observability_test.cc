// The enforcement-audit trail and per-policy attribution: every Execute /
// WouldAllow verdict lands in the decision store, whose audit view
// persists as a dl-audit TSV file and whose slow view is the dl_slow_log
// relation, and PolicyReport's per-policy evaluation time accounts for the
// cumulative policy CPU time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "core/datalawyer.h"
#include "core/decision.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

DecisionRecord MakeRecord(int64_t ts, const std::string& sql, bool admitted) {
  DecisionRecord r;
  r.id = uint64_t(ts) + 1;
  r.ts = ts;
  r.uid = ts % 3;
  r.query_sql = sql;
  r.admitted = admitted;
  r.timings.user_exec_us = double(ts) * 10;
  return r;
}

void MarkViolated(DecisionRecord* r, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    PolicyOutcome o;
    o.policy = name;
    o.outcome = "violated";
    r->outcomes.push_back(o);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// The audit trail is the decision ring: eviction drops the oldest records
// from the saved trail too, and the trail keeps ring order.
TEST(AuditTrailTest, SavesOnlyTheRetainedRingOldestFirst) {
  DecisionStore store(3);
  for (int i = 0; i < 5; ++i) {
    store.Append(MakeRecord(i, "q" + std::to_string(i), true));
  }
  EXPECT_EQ(store.dropped(), 2u);
  std::string path = ::testing::TempDir() + "/audit_ring.tsv";
  ASSERT_TRUE(store.SaveAudit(path).ok());
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.records().front().query_sql, "q2");
  EXPECT_EQ(restored.records().back().query_sql, "q4");
  std::remove(path.c_str());
}

TEST(AuditTrailTest, SaveLoadRoundTripsEscapedFields) {
  DecisionStore store(10);
  DecisionRecord r = MakeRecord(42, "SELECT 'tab\there'\nFROM \\weird", false);
  r.probe = true;
  MarkViolated(&r, {"p1", "p,with,commas"});
  PolicyOutcome clean;  // not violated: stays out of the audit field
  clean.policy = "p_ok";
  clean.outcome = "ok";
  r.outcomes.insert(r.outcomes.begin() + 1, clean);
  r.timings.policy_eval_us = 123.456;
  r.timings.parse_us = 7.5;  // frontend: saved only inside the total
  store.Append(r);
  store.Append(MakeRecord(43, "plain", true));

  std::string path = ::testing::TempDir() + "/audit_roundtrip.tsv";
  ASSERT_TRUE(store.SaveAudit(path).ok());

  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), 2u);
  const DecisionRecord& back = restored.records().front();
  EXPECT_EQ(back.ts, 42);
  EXPECT_EQ(back.query_sql, "SELECT 'tab\there'\nFROM \\weird");
  EXPECT_FALSE(back.admitted);
  EXPECT_TRUE(back.probe);
  EXPECT_EQ(back.policy, "p1");
  EXPECT_EQ(back.query_hash, Fnv1a64(back.query_sql));
  ASSERT_EQ(back.ViolatedPolicies().size(), 2u);
  EXPECT_EQ(back.ViolatedPolicies()[0], "p1");
  EXPECT_EQ(back.ViolatedPolicies()[1], "p,with,commas");
  EXPECT_NEAR(back.timings.policy_eval_us, 123.456, 0.001);
  EXPECT_NEAR(back.timings.total_us(), r.timings.total_us(), 0.001);
  EXPECT_TRUE(restored.records().back().admitted);

  // Saving the loaded trail reproduces the file byte for byte.
  std::string again = ::testing::TempDir() + "/audit_roundtrip2.tsv";
  ASSERT_TRUE(restored.SaveAudit(again).ok());
  EXPECT_EQ(ReadFile(again), ReadFile(path));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

// Regression: fields containing a carriage return, a literal backslash
// followed by 't' (which must NOT round-trip to a tab), or a trailing
// backslash used to corrupt the TSV framing. The shared escaping helpers
// in common/strings must keep every such record intact.
TEST(AuditTrailTest, SaveLoadHandlesHostileEscapeSequences) {
  DecisionStore store(10);
  const std::vector<std::string> hostile = {
      "line1\r\nline2",      // carriage return + newline
      "literal \\t not tab",  // backslash-t as two characters
      "ends with backslash \\",
      "\t\n\r\\",  // every special, adjacent
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    DecisionRecord r = MakeRecord(int64_t(i), hostile[i], i % 2 == 0);
    MarkViolated(&r, {hostile[i]});
    store.Append(std::move(r));
  }
  std::string path = ::testing::TempDir() + "/audit_hostile.tsv";
  ASSERT_TRUE(store.SaveAudit(path).ok());
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), hostile.size());
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(restored.records()[i].query_sql, hostile[i]) << i;
    ASSERT_EQ(restored.records()[i].ViolatedPolicies().size(), 1u);
    EXPECT_EQ(restored.records()[i].ViolatedPolicies()[0], hostile[i]) << i;
  }
  std::remove(path.c_str());
}

// v2 carries the decision id. A loaded record keeps it while that keeps the
// store's ids strictly increasing, and takes the next free id otherwise.
TEST(AuditTrailTest, DecisionIdRoundTripsInV2Format) {
  DecisionStore store(10);
  DecisionRecord r = MakeRecord(1, "SELECT 1", true);
  r.id = 42;
  store.Append(std::move(r));
  std::string path = ::testing::TempDir() + "/audit_v2.tsv";
  ASSERT_TRUE(store.SaveAudit(path).ok());

  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.records()[0].id, 42u);
  EXPECT_EQ(restored.FindById(42), &restored.records()[0]);
  EXPECT_EQ(restored.NextId(), 43u);  // never reissues a loaded id

  // Loading the same trail again: id 42 is taken, so it is renumbered.
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.records()[1].id, 44u);
  EXPECT_EQ(restored.FindById(44), &restored.records()[1]);
  std::remove(path.c_str());
}

// A v1 trail (no decision_id column) still loads; its records take the
// store's next ids.
TEST(AuditTrailTest, LoadsV1FilesWithoutDecisionIds) {
  std::string path = ::testing::TempDir() + "/audit_v1.tsv";
  WriteFile(path,
            "dl-audit-v1\n"
            "10\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t\tSELECT 1\n"
            "11\t4\t0\t1\t9.000\t0.000\t2.000\t3.000\t0.000\tp2\tSELECT 2\n");
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadAudit(path).ok());
  ASSERT_EQ(restored.size(), 2u);
  const DecisionRecord& r = restored.records()[0];
  EXPECT_EQ(r.ts, 10);
  EXPECT_EQ(r.uid, 3);
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.query_sql, "SELECT 1");
  EXPECT_DOUBLE_EQ(r.timings.user_exec_us, 1.0);
  EXPECT_NEAR(r.timings.total_us(), 12.5, 1e-9);
  const DecisionRecord& probe = restored.records()[1];
  EXPECT_EQ(probe.id, 2u);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(probe.policy, "p2");
  std::remove(path.c_str());
}

TEST(AuditTrailTest, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/audit_garbage.tsv";
  WriteFile(path, "not-an-audit-file\n");
  DecisionStore store(10);
  EXPECT_FALSE(store.LoadAudit(path).ok());
  std::remove(path.c_str());
}

// Every malformed field is an InvalidArgument, and the load is all or
// nothing: the good line ahead of the bad one is not appended either.
TEST(AuditTrailTest, LoadRejectsMalformedFieldsAndLeavesStoreUnchanged) {
  const std::string good =
      "10\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t7\t\tSELECT 1\n";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"non-numeric ts",
       "1x\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t8\t\tSELECT 2\n"},
      {"flag value 2",
       "11\t3\t2\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t8\t\tSELECT 2\n"},
      {"truncated line", "11\t3\t1\t0\t12.5"},
      {"non-numeric timing",
       "11\t3\t1\t0\tfast\t1.000\t2.000\t3.000\t0.000\t8\t\tSELECT 2\n"},
      {"negative decision id",
       "11\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t-8\t\tSELECT 2\n"},
      {"decision id with no successor",
       "11\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t"
       "18446744073709551615\t\tSELECT 2\n"},
  };
  std::string path = ::testing::TempDir() + "/audit_malformed.tsv";
  for (const auto& [what, line] : bad) {
    WriteFile(path, "dl-audit-v2\n" + good + line);
    DecisionStore store(10);
    store.Append(MakeRecord(0, "kept", true));
    Status st = store.LoadAudit(path);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    ASSERT_EQ(store.size(), 1u) << what;
    EXPECT_EQ(store.records()[0].query_sql, "kept") << what;
    EXPECT_EQ(store.total_appended(), 1u) << what;
  }
  std::remove(path.c_str());
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options) {
    auto dl = std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
    for (const auto& [name, sql] : PaperPolicies::All()) {
      EXPECT_TRUE(dl->AddPolicy(name, sql).ok());
    }
    return dl;
  }

  Database db_;
  // Admitted for uid 0; trips P2 for uid 1 (medication joined with sex).
  const std::string join_sql_ =
      "SELECT o.medication, p.sex FROM poe_order o, "
      "d_patients p WHERE o.subject_id = p.subject_id";
};

TEST_F(ObservabilityIntegrationTest, AuditViewHasVerdictsAndTimings) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  auto rejected = dl->Execute(join_sql_, ctx);
  ASSERT_TRUE(rejected.status().IsPolicyViolation());
  ASSERT_TRUE(dl->WouldAllow(join_sql_, ctx).IsPolicyViolation());

  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(store.size(), 3u);

  const DecisionRecord& admit = store.records()[0];
  EXPECT_TRUE(admit.admitted);
  EXPECT_FALSE(admit.probe);
  EXPECT_EQ(admit.uid, 0);
  EXPECT_EQ(admit.query_sql, join_sql_);
  EXPECT_TRUE(admit.ViolatedPolicies().empty());
  EXPECT_GT(admit.timings.total_us(), 0.0);
  EXPECT_GT(admit.timings.policy_eval_us, 0.0);

  const DecisionRecord& reject = store.records()[1];
  EXPECT_FALSE(reject.admitted);
  EXPECT_FALSE(reject.probe);
  EXPECT_EQ(reject.uid, 1);
  ASSERT_FALSE(reject.ViolatedPolicies().empty());
  EXPECT_EQ(reject.ViolatedPolicies()[0], "p2");

  const DecisionRecord& probe = store.records()[2];
  EXPECT_FALSE(probe.admitted);
  EXPECT_TRUE(probe.probe);
}

// The audit trail's "violated policies" are the record's violated
// outcomes, which must list the same policies in the same order as
// last_violations() on every strategy — including the union path, which
// attributes every violating member.
TEST_F(ObservabilityIntegrationTest, ViolatedPoliciesMatchLastViolations) {
  for (EvalStrategy strategy :
       {EvalStrategy::kInterleaved, EvalStrategy::kSerial,
        EvalStrategy::kUnion}) {
    for (int threads : {0, 2}) {
      DataLawyerOptions options;
      options.strategy = strategy;
      options.policy_threads = threads;
      options.enable_unification = false;
      DataLawyer dl(&db_, UsageLog::WithStandardGenerators(),
                    std::make_unique<ManualClock>(0, 10), options);
      ASSERT_TRUE(dl.AddPolicy("first", "SELECT DISTINCT 'a' FROM users u "
                                        "WHERE u.uid = 1")
                      .ok());
      ASSERT_TRUE(dl.AddPolicy("second", "SELECT DISTINCT 'b' FROM users u "
                                         "WHERE u.uid = 1")
                      .ok());
      QueryContext ctx;
      ctx.uid = 1;
      ASSERT_TRUE(
          dl.Execute("SELECT COUNT(*) FROM d_patients", ctx)
              .status()
              .IsPolicyViolation());
      std::vector<std::string> reported;
      for (const ViolationReport& v : dl.last_violations()) {
        reported.push_back(v.policy_name);
      }
      ASSERT_FALSE(reported.empty());
      EXPECT_EQ(dl.decision_store().records().back().ViolatedPolicies(),
                reported)
          << "strategy " << int(strategy) << " threads " << threads;
      if (strategy == EvalStrategy::kUnion) {
        EXPECT_EQ(reported, (std::vector<std::string>{"first", "second"}));
      }
    }
  }
}

// One record, three views: dl_slow_log is exactly the decision records at
// or above the threshold, in order (a threshold set afterwards applies to
// queries already recorded), and each audit-file line is the projection of
// its decision record.
TEST_F(ObservabilityIntegrationTest, SlowAndAuditAreViewsOfDecisions) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  ASSERT_TRUE(dl->WouldAllow(join_sql_, ctx).IsPolicyViolation());
  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(store.size(), 3u);

  std::vector<double> totals;
  for (const DecisionRecord& d : store.records()) {
    totals.push_back(d.timings.total_us());
  }
  std::sort(totals.begin(), totals.end());
  DataLawyerOptions options = dl->options();
  options.slow_enforcement_threshold_us = totals[1];
  dl->set_options(options);

  std::vector<const DecisionRecord*> expected;
  for (const DecisionRecord& d : store.records()) {
    if (d.timings.total_us() >= totals[1]) expected.push_back(&d);
  }
  EXPECT_GE(expected.size(), 2u);
  EXPECT_EQ(store.Slow(totals[1]), expected);
  auto rows = dl->QueryUsageLog(
      "SELECT ts, uid, rejected, probe, query, total_us FROM dl_slow_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const DecisionRecord& d = *expected[i];
    EXPECT_EQ(rows->rows[i][0].AsInt64(), d.ts);
    EXPECT_EQ(rows->rows[i][1].AsInt64(), d.uid);
    EXPECT_EQ(rows->rows[i][2].AsBool(), !d.admitted);
    EXPECT_EQ(rows->rows[i][3].AsBool(), d.probe);
    EXPECT_EQ(rows->rows[i][4].AsString(), d.query_sql);
    EXPECT_DOUBLE_EQ(rows->rows[i][5].AsDouble(), d.timings.total_us());
  }

  std::string path = ::testing::TempDir() + "/audit_views.tsv";
  ASSERT_TRUE(store.SaveAudit(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "dl-audit-v2");
  for (const DecisionRecord& d : store.records()) {
    ASSERT_TRUE(std::getline(in, line));
    std::vector<std::string> f = SplitEscaped(line, '\t');
    ASSERT_EQ(f.size(), 12u) << line;
    auto us = [](double v) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.3f", v);
      return std::string(buf);
    };
    EXPECT_EQ(f[0], std::to_string(d.ts));
    EXPECT_EQ(f[1], std::to_string(d.uid));
    EXPECT_EQ(f[2], d.admitted ? "1" : "0");
    EXPECT_EQ(f[3], d.probe ? "1" : "0");
    EXPECT_EQ(f[4], us(d.timings.total_us()));
    EXPECT_EQ(f[5], us(d.timings.user_exec_us));
    EXPECT_EQ(f[6], us(d.timings.log_gen_us));
    EXPECT_EQ(f[7], us(d.timings.policy_eval_us));
    EXPECT_EQ(f[8], us(d.timings.compaction_us));
    EXPECT_EQ(f[9], std::to_string(d.id));
    EXPECT_EQ(f[10], Join(d.ViolatedPolicies(), ","));
    EXPECT_EQ(TsvUnescape(f[11]), d.query_sql);
  }
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST_F(ObservabilityIntegrationTest, PolicyReportAccountsForPolicyCpuTime) {
  auto dl = Make({});
  QueryContext ctx;
  double cumulative_cpu_us = 0;
  for (int i = 0; i < 6; ++i) {
    ctx.uid = i % 2;
    auto result = dl->Execute(join_sql_, ctx);
    ASSERT_TRUE(result.ok() || result.status().IsPolicyViolation());
    cumulative_cpu_us += dl->last_stats().policy_cpu_us;
  }

  std::vector<PolicyStats> report = dl->PolicyReport();
  ASSERT_FALSE(report.empty());
  // Active policies lead, in registration order.
  EXPECT_EQ(report[0].name, dl->active_policies()[0].name);

  double attributed_us = 0;
  uint64_t evaluations = 0, rejections = 0;
  for (const PolicyStats& ps : report) {
    attributed_us += ps.eval_us;
    evaluations += ps.evaluations;
    rejections += ps.rejections;
  }
  EXPECT_GT(evaluations, 0u);
  EXPECT_GT(rejections, 0u);  // uid 1 queries trip p2
  // The per-policy attribution must account for the cumulative policy CPU
  // time within 5% (the ISSUE's acceptance bound).
  EXPECT_GT(cumulative_cpu_us, 0.0);
  EXPECT_NEAR(attributed_us, cumulative_cpu_us, cumulative_cpu_us * 0.05);

  dl->ResetPolicyStats();
  for (const PolicyStats& ps : dl->PolicyReport()) {
    EXPECT_EQ(ps.evaluations, 0u);
    EXPECT_EQ(ps.eval_us, 0.0);
  }
}

TEST_F(ObservabilityIntegrationTest, MetricsRecordedWhenEnabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("dl_queries_total");
  Counter* rejected = reg.GetCounter("dl_queries_rejected_total");
  Histogram* total = reg.GetHistogram("dl_total_us");
  uint64_t queries_before = queries->value();
  uint64_t rejected_before = rejected->value();
  uint64_t observed_before = total->count();

  DataLawyerOptions options;
  options.enable_metrics = true;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());

  EXPECT_EQ(queries->value(), queries_before + 2);
  EXPECT_EQ(rejected->value(), rejected_before + 1);
  EXPECT_EQ(total->count(), observed_before + 2);
}

// The slow-enforcement log is queryable as the dl_slow_log relation and
// agrees row-for-row with the store's slow view.
TEST_F(ObservabilityIntegrationTest, SlowViewQueryableAsSystemRelation) {
  DataLawyerOptions options;
  options.slow_enforcement_threshold_us = 0.001;  // everything is "slow"
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  }
  auto rows = dl->QueryUsageLog(
      "SELECT uid, rejected, query, total_us FROM dl_slow_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<const DecisionRecord*> slow =
      dl->decision_store().Slow(options.slow_enforcement_threshold_us);
  ASSERT_EQ(slow.size(), 3u);
  ASSERT_EQ(rows->rows.size(), slow.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    const DecisionRecord& d = *slow[i];
    EXPECT_EQ(rows->rows[i][0].AsInt64(), d.uid);
    EXPECT_EQ(rows->rows[i][1].AsBool(), !d.admitted);
    EXPECT_EQ(rows->rows[i][2].AsString(), d.query_sql);
    EXPECT_NEAR(rows->rows[i][3].AsDouble(), d.timings.total_us(), 1e-6);
  }
}

TEST_F(ObservabilityIntegrationTest, MetricsSilentWhenDisabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t before = reg.GetCounter("dl_queries_total")->value();
  auto dl = Make({});  // enable_metrics defaults off
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  EXPECT_EQ(reg.GetCounter("dl_queries_total")->value(), before);
}

}  // namespace
}  // namespace datalawyer
