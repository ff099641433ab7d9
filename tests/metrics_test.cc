#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include <atomic>
#include <future>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "core/datalawyer.h"
#include "exec/engine.h"

namespace datalawyer {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  TaskScheduler pool(4);
  pool.ParallelFor(1000, [&](size_t) { c.Increment(); });
  EXPECT_EQ(c.value(), 1000u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds values < 1; bucket b holds [2^(b-1), 2^b).
  Histogram h;
  h.Observe(0.0);
  h.Observe(0.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  h.Observe(1.0);  // [1, 2) -> bucket 1
  EXPECT_EQ(h.bucket_count(1), 1u);
  h.Observe(2.0);  // [2, 4) -> bucket 2
  h.Observe(3.9);
  EXPECT_EQ(h.bucket_count(2), 2u);
  h.Observe(1024.0);  // [1024, 2048) -> bucket 11
  EXPECT_EQ(h.bucket_count(11), 1u);
}

TEST(HistogramTest, SumMeanMinMax) {
  Histogram h;
  h.Observe(10.0);
  h.Observe(20.0);
  h.Observe(30.0);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(HistogramTest, PercentilesOnUniformSeries) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(double(i));
  // Log-scale buckets are coarse (power-of-two), so accept up to one
  // bucket's relative error.
  double p50 = h.Percentile(0.50);
  double p95 = h.Percentile(0.95);
  double p99 = h.Percentile(0.99);
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  EXPECT_GT(p95, 500.0);
  EXPECT_LE(p95, 1000.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 1000.0);
  // Extremes clamp to observed min/max regardless of bucket width.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapse) {
  Histogram h;
  h.Observe(37.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 37.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 37.0);
  // q = 0 and q = 1 are the observed extremes — here the same point.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 37.0);
}

TEST(HistogramTest, EmptyPercentilesAreZeroAtEveryQuantile) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
  // Out-of-range quantiles clamp rather than misbehave.
  EXPECT_DOUBLE_EQ(h.Percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 0.0);
}

TEST(HistogramTest, AllObservationsInOneBucket) {
  // Distinct values all landing in bucket [64, 128): interpolation stays
  // inside the observed [min, max] range, and every quantile is ordered.
  Histogram h;
  h.Observe(70.0);
  h.Observe(80.0);
  h.Observe(90.0);
  h.Observe(100.0);
  double p50 = h.Percentile(0.5);
  double p95 = h.Percentile(0.95);
  EXPECT_GE(p50, 70.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(p95, p50);
  EXPECT_LE(p95, 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 70.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
}

TEST(HistogramTest, OutOfRangeQuantilesClampToExtremes) {
  Histogram h;
  h.Observe(5.0);
  h.Observe(500.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.5), 500.0);
}

TEST(HistogramTest, ConcurrentObserves) {
  Histogram h;
  TaskScheduler pool(4);
  pool.ParallelFor(1000, [&](size_t i) { h.Observe(double(i % 64)); });
  EXPECT_EQ(h.count(), 1000u);
}

TEST(HistogramTest, Reset) {
  Histogram h;
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  h.Observe(2.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(MetricsRegistryTest, GetIsFindOrCreate) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("queries", "total queries");
  Counter* b = reg.GetCounter("queries");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.GetHistogram("latency_us");
  Histogram* h2 = reg.GetHistogram("latency_us");
  EXPECT_EQ(h1, h2);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsRegistryTest, ExposeTextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("dl_queries_total", "queries executed")->Increment(7);
  Histogram* h = reg.GetHistogram("dl_eval_us", "evaluation time");
  h->Observe(3.0);
  h->Observe(100.0);
  std::string text = reg.ExposeText();

  EXPECT_NE(text.find("# HELP dl_queries_total queries executed"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dl_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("dl_queries_total 7"), std::string::npos);

  EXPECT_NE(text.find("# TYPE dl_eval_us histogram"), std::string::npos);
  // Cumulative buckets: the bucket containing 3.0 has le="4" count 1, and
  // every bucket at or past 100.0 (le="128" onward) accumulates to 2.
  EXPECT_NE(text.find("dl_eval_us_bucket{le=\"4\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dl_eval_us_bucket{le=\"128\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dl_eval_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dl_eval_us_sum 103"), std::string::npos);
  EXPECT_NE(text.find("dl_eval_us_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment(2);
  reg.GetHistogram("h")->Observe(8.0);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  c->Increment(5);
  h->Observe(5.0);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  c->Increment();  // the old pointer still works
  EXPECT_EQ(reg.GetCounter("c")->value(), 1u);
}

// The plan-cache counters flow into the global registry only when
// enable_metrics is on, and in steady state (policies planned once at
// Prepare) every recorded evaluation is a hit.
TEST(PlanCacheMetricsTest, CountersRecordedAndGated) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* hits = reg.GetCounter("dl_plan_cache_hits_total");
  Counter* misses = reg.GetCounter("dl_plan_cache_misses_total");

  auto run_queries = [](DataLawyerOptions options) {
    Database db;
    Engine engine(&db);
    EXPECT_TRUE(engine
                    .ExecuteScript("CREATE TABLE t (a INT);"
                                   "INSERT INTO t VALUES (1), (2);")
                    .ok());
    DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
    EXPECT_TRUE(
        dl.AddPolicy("never", "SELECT DISTINCT 'no' FROM users u "
                              "WHERE u.uid = 999999")
            .ok());
    QueryContext ctx;
    ctx.uid = 1;
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
    }
  };

  // Gated off: nothing lands in the registry.
  uint64_t hits_before = hits->value();
  uint64_t misses_before = misses->value();
  run_queries({});  // enable_metrics defaults off
  EXPECT_EQ(hits->value(), hits_before);
  EXPECT_EQ(misses->value(), misses_before);

  // Gated on: hits accumulate, and the steady-state miss count stays flat.
  DataLawyerOptions with_metrics;
  with_metrics.enable_metrics = true;
  run_queries(with_metrics);
  EXPECT_GT(hits->value(), hits_before);
  EXPECT_EQ(misses->value(), misses_before);
}

// An empty histogram renders explicit `-` placeholders, not stale or
// garbage numbers — registering a histogram must not fabricate latencies.
TEST(MetricsRegistryTest, SummaryTextRendersEmptyHistogramsAsDashes) {
  MetricsRegistry reg;
  reg.GetHistogram("dl_never_observed_us", "registered but never fed");
  Histogram* h = reg.GetHistogram("dl_fed_us");
  h->Observe(10.0);
  std::string text = reg.SummaryText();
  ASSERT_NE(text.find("dl_never_observed_us"), std::string::npos);
  std::string line = text.substr(text.find("dl_never_observed_us"));
  line = line.substr(0, line.find('\n'));
  EXPECT_NE(line.find(" 0 "), std::string::npos) << line;
  EXPECT_NE(line.find("-"), std::string::npos) << line;
  // The fed histogram still renders numbers.
  std::string fed = text.substr(text.find("dl_fed_us"));
  fed = fed.substr(0, fed.find('\n'));
  EXPECT_EQ(fed.find(" - "), std::string::npos) << fed;
}

TEST(MetricsRegistryTest, SummaryTextOmitsHistogramTableWhenNoneExist) {
  MetricsRegistry reg;
  reg.GetCounter("only_counters")->Increment();
  std::string text = reg.SummaryText();
  EXPECT_EQ(text.find("p50"), std::string::npos);
}

// Counters get their own table in the summary — the incremental-evaluation
// totals (`dl_incremental_*`) are plain counters, and `\metrics` is where
// operators look for them.
TEST(MetricsRegistryTest, SummaryTextListsCountersWithValues) {
  MetricsRegistry reg;
  reg.GetCounter("dl_incremental_hits_total")->Increment(7);
  reg.GetHistogram("dl_fed_us")->Observe(10.0);
  std::string text = reg.SummaryText();
  ASSERT_NE(text.find("counter"), std::string::npos);
  std::string line = text.substr(text.find("dl_incremental_hits_total"));
  line = line.substr(0, line.find('\n'));
  EXPECT_NE(line.find("7"), std::string::npos) << line;
  // Counters follow the histogram table, not the other way around.
  EXPECT_LT(text.find("dl_fed_us"), text.find("dl_incremental_hits_total"));
}

TEST(RollupRegistryTest, WindowsAggregateAndExpire) {
  RollupRegistry rollups;
  int64_t t0 = 1000 * 1000000;  // an arbitrary whole-second instant
  double phases[RollupRegistry::kNumPhases] = {100, 10, 50, 5, 35};
  rollups.RecordAt(t0, /*rejected=*/false, phases);
  rollups.RecordAt(t0, /*rejected=*/true, phases);
  // Five seconds later: outside the 1s window, inside 10s and 60s.
  int64_t t1 = t0 + 5 * 1000000;
  rollups.RecordAt(t1, /*rejected=*/false, phases);

  auto w1 = rollups.SnapshotAt(t1, 1);
  EXPECT_EQ(w1.queries, 1u);
  EXPECT_EQ(w1.rejected, 0u);

  auto w10 = rollups.SnapshotAt(t1, 10);
  EXPECT_EQ(w10.queries, 3u);
  EXPECT_EQ(w10.rejected, 1u);
  EXPECT_NEAR(w10.rejection_rate, 1.0 / 3.0, 1e-9);

  // Two minutes later everything has aged out of every window.
  auto stale = rollups.SnapshotAt(t1 + 120 * 1000000, 60);
  EXPECT_EQ(stale.queries, 0u);
  EXPECT_EQ(stale.rejection_rate, 0.0);
}

// Acceptance: rollup percentiles and Histogram percentiles share the same
// log2 bucketing and interpolation, so identical samples agree exactly.
TEST(RollupRegistryTest, PercentilesAgreeWithHistogram) {
  RollupRegistry rollups;
  Histogram hist;
  int64_t t0 = 2000 * 1000000;
  for (int i = 1; i <= 200; ++i) {
    double v = double(i) * 7.3;
    double phases[RollupRegistry::kNumPhases] = {v, 0, v / 2, 0, 0};
    rollups.RecordAt(t0 + (i % 10) * 1000000, i % 5 == 0, phases);
    hist.Observe(v);
  }
  auto w = rollups.SnapshotAt(t0 + 9 * 1000000, 10);
  ASSERT_EQ(w.queries, 200u);
  EXPECT_DOUBLE_EQ(w.p50[RollupRegistry::kTotal], hist.Percentile(0.5));
  EXPECT_DOUBLE_EQ(w.p95[RollupRegistry::kTotal], hist.Percentile(0.95));
}

TEST(RollupRegistryTest, ExpositionAndSummaryCoverEveryWindow) {
  RollupRegistry rollups;
  double phases[RollupRegistry::kNumPhases] = {100, 10, 50, 5, 35};
  rollups.Record(false, phases);
  std::string expo;
  rollups.AppendExposition(&expo);
  for (int w : {1, 10, 60}) {
    std::string label = "window=\"" + std::to_string(w) + "s\"";
    EXPECT_NE(expo.find("dl_rollup_queries{" + label + "} 1"),
              std::string::npos)
        << expo;
  }
  EXPECT_NE(expo.find("quantile=\"0.95\""), std::string::npos);
  std::string summary = rollups.SummaryText();
  EXPECT_NE(summary.find("60s"), std::string::npos);
}

TEST(RollupRegistryTest, SchedCountersAggregateAndExpire) {
  RollupRegistry rollups;
  int64_t t0 = 3000LL * 1000000;
  rollups.RecordSchedAt(t0, /*morsels=*/8, /*steals=*/2,
                        /*queue_wait_us=*/40, /*busy_us=*/500);
  rollups.RecordSchedAt(t0 + 5 * 1000000, 4, 1, 10, 250);

  auto w1 = rollups.SnapshotAt(t0 + 5 * 1000000, 1);
  EXPECT_EQ(w1.sched_morsels, 4u);
  EXPECT_EQ(w1.sched_steals, 1u);

  auto w10 = rollups.SnapshotAt(t0 + 5 * 1000000, 10);
  EXPECT_EQ(w10.sched_morsels, 12u);
  EXPECT_EQ(w10.sched_steals, 3u);
  EXPECT_EQ(w10.sched_queue_wait_us, 50u);
  EXPECT_EQ(w10.sched_busy_us, 750u);

  auto stale = rollups.SnapshotAt(t0 + 200 * 1000000, 60);
  EXPECT_EQ(stale.sched_morsels, 0u);

  std::string expo;
  rollups.AppendExposition(&expo);
  for (int w : {1, 10, 60}) {
    std::string label = "window=\"" + std::to_string(w) + "s\"";
    EXPECT_NE(expo.find("dl_rollup_sched_morsels{" + label + "}"),
              std::string::npos)
        << expo;
  }
}

// The rollup feed is serial on DataLawyer's API, but nothing stops an
// embedder (or the scheduler exposition path) from recording from worker
// threads — the registry takes one mutex per record, so concurrent feeds
// from scheduler workers must neither tear nor drop: every window count
// sums to the global task counter. Runs under TSan via the tsan CI leg.
TEST(RollupRegistryTest, ConcurrentFeedFromSchedulerWorkers) {
  RollupRegistry rollups;
  TaskScheduler scheduler(4);
  constexpr int kTasks = 256;
  std::atomic<uint64_t> fed{0};
  double phases[RollupRegistry::kNumPhases] = {10, 1, 5, 1, 3};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(scheduler.Submit([&rollups, &phases, &fed] {
      rollups.Record(/*rejected=*/false, phases);
      rollups.RecordSched(/*morsels=*/1, /*steals=*/0, /*queue_wait_us=*/2,
                          /*busy_us=*/10);
      fed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();

  ASSERT_EQ(fed.load(), uint64_t(kTasks));
  // All records landed within the last few wall-clock seconds, so the 60s
  // window must hold every one of them.
  auto w = rollups.Snapshot(60);
  EXPECT_EQ(w.queries, uint64_t(kTasks));
  EXPECT_EQ(w.sched_morsels, uint64_t(kTasks));
  EXPECT_EQ(w.sched_queue_wait_us, uint64_t(2 * kTasks));
  EXPECT_EQ(w.sched_busy_us, uint64_t(10 * kTasks));
}

// End to end: the per-query rollup feed agrees with the dl_total_us
// histogram the same queries populate (identical sample stream).
TEST(RollupMetricsIntegrationTest, RollupMatchesHistogramWithinBucket) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* total = reg.GetHistogram("dl_total_us");
  uint64_t count_before = total->count();
  RollupRegistry::Global().Reset();

  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE t (a INT);"
                                 "INSERT INTO t VALUES (1), (2);")
                  .ok());
  DataLawyerOptions options;
  options.enable_metrics = true;
  DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
  }

  EXPECT_EQ(total->count(), count_before + 20);
  auto w = RollupRegistry::Global().Snapshot(60);
  ASSERT_EQ(w.queries, 20u);
  EXPECT_EQ(w.rejected, 0u);
  // Same bucketing ⇒ the rollup p50 can differ from the full-histogram p50
  // only through the histogram's extra history; both land in [min, max].
  EXPECT_GE(w.p95[RollupRegistry::kTotal], w.p50[RollupRegistry::kTotal]);
  EXPECT_GT(w.p50[RollupRegistry::kTotal], 0.0);
}

TEST(MetricsRegistryTest, NamesAreSorted) {
  MetricsRegistry reg;
  reg.GetCounter("b");
  reg.GetCounter("a");
  reg.GetHistogram("z");
  reg.GetHistogram("y");
  auto counters = reg.CounterNames();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0], "a");
  EXPECT_EQ(counters[1], "b");
  auto hists = reg.HistogramNames();
  ASSERT_EQ(hists.size(), 2u);
  EXPECT_EQ(hists[0], "y");
  EXPECT_EQ(hists[1], "z");
}

}  // namespace
}  // namespace datalawyer
