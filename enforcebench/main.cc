// Enforcement benchmark: drives DataLawyer through its public API with one
// closed-loop client and reports end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1). See README.md in this directory.
//
//   enforcebench --workload analytic|audit_mix --seed N --seconds S
//                --trace 0|1 [--commit SHA] [--source-hash H]
//                [--spans-out FILE]
//
// The last line of standard output is the result:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "host_env.h"
#include "ledger.h"
#include "stream.h"
#include "system.h"

namespace enforcebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// Seed reserved for checking a claimed gain after the change is written
/// (never used while developing one).
constexpr uint64_t kHeldOutSeed = 9001;

struct WorkloadPlan {
  /// Ops run before timing starts: fills P5's 3,000-tick window so windowed
  /// policy state is at its steady size.
  int warmup_ops;
  /// Ops from the start of the stream replayed on the NoOpt oracle (a
  /// prefix of the warm-up; covers every op kind of the workload).
  int oracle_ops;
  /// latency_tail_ms is this quantile: the highest of p75/p90/p95/p99 with
  /// at least ten samples beyond it in a segment (below).
  /// It is fixed per workload so that a faster program, which completes
  /// more ops, still reports the same percentile. The report gives the
  /// segment size and the fewest samples beyond the tail in a segment.
  double tail_quantile;
  /// The timing metrics are computed per segment of this many consecutive
  /// whole blocks of the timed run and reported as the median over the
  /// segments; 0 makes the whole run one segment. A segment is long enough
  /// for the tail quantile to have ten samples beyond it. Medians over
  /// segments keep a slow phase of a shared host that covers a minority of
  /// the run (every op kind slows down together, by up to 2x, for seconds
  /// at a time) out of every metric.
  size_t segment_blocks;
};

WorkloadPlan PlanFor(Workload w) {
  switch (w) {
    case Workload::kAnalytic:
      // 170-260 ops in 45 s: too few to split, the run is one segment.
      return {20, 20, 0.9, 0};
    case Workload::kAuditMix:
      // 50 blocks = 1,000 ops: 13-28 segments in 45 s.
      return {400, 200, 0.99, 50};
  }
  return {0, 0, 0.5, 0};
}

struct Args {
  Workload workload = Workload::kAnalytic;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string source_hash = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = int(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-hash") {
      args->source_hash = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Linear-interpolated quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * double(sorted.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\"" : "\"") + datalawyer::JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

/// Ops attempted and failed, with the first few failures for the report.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(uint64_t id, const Op& op, const std::string& why) {
    ++failed;
    if (failures.size() < 5) {
      failures.push_back("op " + std::to_string(id) + " (" +
                         OpKindName(op.kind) + "): " + why);
    }
  }
  void Check(uint64_t id, const Op& op, const Outcome& out) {
    ++attempted;
    if (!VerdictAsExpected(op, out)) {
      Fail(id, op,
           out.verdict == Outcome::kOk ? std::string("admitted")
                                       : "status: " + out.message);
    }
  }
};

/// kSetupReps set-ups; the last system is kept for the run.
struct SetUps {
  std::unique_ptr<System> sys;
  std::vector<double> total_s, load_s, prepare_s;
};

Result<SetUps> SetUp() {
  SetUps out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.sys.reset();
    DL_ASSIGN_OR_RETURN(out.sys, BuildSystem(DataLawyerOptions{}));
    out.load_s.push_back(out.sys->load_s);
    out.prepare_s.push_back(out.sys->prepare_s);
    out.total_s.push_back(out.sys->load_s + out.sys->prepare_s);
  }
  return out;
}

/// One timed op.
struct Sample {
  OpKind kind;
  double ms;        ///< latency of the public call
  double end_s;     ///< seconds from the start of timing to the op's end
  double log_rows;  ///< retained log rows while the op ran
  int64_t ticks;
};

/// The closed loop: runs ops for `seconds`, checking each verdict and, with
/// a ledger, recording the traced run.
std::vector<Sample> TimedLoop(System* sys, OpStream* stream, int seconds,
                              uint64_t* next_id, Tally* tally,
                              Ledger* ledger) {
  std::vector<Sample> samples;
  Outcome out;
  auto start = Clock::now();
  auto deadline = start + std::chrono::seconds(seconds);
  for (uint64_t i = 0; Clock::now() < deadline; ++i, ++*next_id) {
    Op op = stream->Next();
    double log_rows = double(LogRowsRetained(sys->dl.get()));
    auto t0 = Clock::now();
    double span_start = ledger ? ledger->NowUs() : 0;
    RunOp(sys, op, &out);
    auto t1 = Clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    samples.push_back({op.kind, ms,
                       std::chrono::duration<double>(t1 - start).count(),
                       log_rows, op.ticks});
    tally->Check(*next_id, op, out);
    if (ledger) {
      // Module probes follow every op of every other block, starting with
      // the first, so traced and untraced ops come from identical op mixes.
      bool traced = i / stream->block_size() % 2 == 0;
      ledger->RecordCall(*next_id, op, span_start, span_start + ms * 1000.0,
                         traced);
      if (traced) ledger->ProbeModules(*next_id, op);
    }
  }
  return samples;
}

/// The timing metrics of one segment of the timed run.
struct SegmentTimes {
  double p50_ms, tail_ms, qps;
  size_t beyond;  ///< samples beyond tail_ms
};

/// Splits `samples` (whole segments of `segment_ops` each) into segments
/// and times each.
std::vector<SegmentTimes> TimeSegments(const std::vector<Sample>& samples,
                                       size_t segment_ops,
                                       double tail_quantile) {
  std::vector<SegmentTimes> out;
  double start_s = 0;
  for (size_t first = 0; first < samples.size(); first += segment_ops) {
    std::vector<double> sorted;
    for (size_t i = first; i < first + segment_ops; ++i) {
      sorted.push_back(samples[i].ms);
    }
    std::sort(sorted.begin(), sorted.end());
    SegmentTimes seg;
    seg.p50_ms = Quantile(sorted, 0.5);
    seg.tail_ms = Quantile(sorted, tail_quantile);
    seg.beyond = 0;
    for (double v : sorted) seg.beyond += v > seg.tail_ms;
    double end_s = samples[first + segment_ops - 1].end_s;
    seg.qps = double(segment_ops) / (end_s - start_s);
    start_s = end_s;
    out.push_back(seg);
  }
  return out;
}

/// Replays the stream prefix on a fresh serial NoOpt system and compares
/// verdicts, messages and user rows with what the timed system returned.
/// Returns the number of mismatching ops (each also a failure in `tally`).
Result<uint64_t> OracleMismatches(const std::vector<Op>& ops,
                                  const std::vector<Outcome>& got,
                                  Tally* tally) {
  DL_ASSIGN_OR_RETURN(std::unique_ptr<System> oracle,
                      BuildSystem(DataLawyerOptions::NoOpt()));
  uint64_t mismatches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    Outcome want;
    RunOp(oracle.get(), ops[i], &want);
    std::string diff;
    if (got[i].verdict != want.verdict) {
      diff = "verdict differs from the oracle";
    } else if (got[i].message != want.message) {
      diff = "message differs: '" + got[i].message + "' vs oracle '" +
             want.message + "'";
    } else if (got[i].rows != want.rows) {
      diff = "user rows differ from the oracle";
    }
    if (!diff.empty()) {
      ++mismatches;
      tally->Fail(i, ops[i], diff);
    }
  }
  return mismatches;
}

int Run(const Args& args) {
  const WorkloadPlan plan = PlanFor(args.workload);

  Result<SetUps> setups = SetUp();
  if (!setups.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setups.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<System> sys = std::move(setups->sys);

  // ---- warm-up; keep the oracle prefix's outcomes ----
  Tally tally;
  OpStream stream(args.workload, args.seed);
  std::vector<Op> prefix_ops;
  std::vector<Outcome> prefix_outcomes;
  std::vector<bool> kinds_seen(kNumOpKinds, false);
  uint64_t next_id = 0;
  for (int i = 0; i < plan.warmup_ops; ++i, ++next_id) {
    Op op = stream.Next();
    Outcome out;
    RunOp(sys.get(), op, &out);
    tally.Check(next_id, op, out);
    if (i < plan.oracle_ops) {
      kinds_seen[int(op.kind)] = true;
      prefix_ops.push_back(std::move(op));
      prefix_outcomes.push_back(std::move(out));
    }
  }

  // ---- timed closed loop ----
  std::unique_ptr<Ledger> ledger;
  if (args.trace) {
    ledger = std::make_unique<Ledger>(sys.get());
    ledger->Begin();
  }
  std::vector<Sample> samples = TimedLoop(sys.get(), &stream, args.seconds,
                                          &next_id, &tally, ledger.get());
  double peak_rss_mb = PeakRssMb();
  // Statistics cover whole segments of whole blocks only (the warm-up is
  // whole blocks too), so every run measures exactly the same op mix
  // whatever its length. A run too short for one segment is one segment.
  const size_t timed_ops = samples.size();
  size_t segment_ops = plan.segment_blocks * stream.block_size();
  if (segment_ops == 0 || segment_ops > timed_ops) {
    segment_ops = timed_ops / stream.block_size() * stream.block_size();
    if (segment_ops == 0) segment_ops = std::max<size_t>(timed_ops, 1);
  }
  const size_t measured = timed_ops / segment_ops * segment_ops;
  samples.resize(measured);
  std::vector<std::vector<double>> kind_ms(kNumOpKinds);
  // Retained log rows, weighted by the clock ticks they stay retained for.
  double row_ticks = 0, ticks = 0;
  for (const Sample& sm : samples) {
    kind_ms[int(sm.kind)].push_back(sm.ms);
    row_ticks += sm.log_rows * double(sm.ticks);
    ticks += double(sm.ticks);
  }
  double elapsed_s = samples.empty() ? 0 : samples.back().end_s;
  double log_rows = ticks > 0 ? row_ticks / ticks : 0;
  std::vector<Metric> layer_metrics;
  if (ledger) layer_metrics = ledger->Metrics();
  if (ledger && !args.spans_out.empty()) {
    std::string json = ledger->SpansJson();
    if (std::FILE* f = std::fopen(args.spans_out.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  sys.reset();

  // ---- output check ----
  Result<uint64_t> mismatches =
      OracleMismatches(prefix_ops, prefix_outcomes, &tally);
  if (!mismatches.ok()) {
    std::fprintf(stderr, "oracle set-up failed: %s\n",
                 mismatches.status().ToString().c_str());
    return 1;
  }
  // The prefix is at least one block, which holds every kind the workload
  // has; this guards the prefix lengths in PlanFor.
  bool covered = true;
  OpStream first_block(args.workload, args.seed);
  for (size_t i = 0; i < first_block.block_size(); ++i) {
    if (!kinds_seen[int(first_block.Next().kind)]) covered = false;
  }

  HostEnv env = ProbeHostEnv();
  if (!env.release) {
    std::fprintf(stderr,
                 "warning: %s build -- timings are not comparable with "
                 "Release results\n",
                 env.build_type.c_str());
  }

  // ---- metrics ----
  std::vector<SegmentTimes> segments =
      TimeSegments(samples, segment_ops, plan.tail_quantile);
  std::vector<double> p50s, tails, qpss;
  size_t beyond = segment_ops;
  for (const SegmentTimes& seg : segments) {
    p50s.push_back(seg.p50_ms);
    tails.push_back(seg.tail_ms);
    qpss.push_back(seg.qps);
    beyond = std::min(beyond, seg.beyond);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics;
    metrics.push_back({"workload.load_s", Median(setups->load_s), "s"});
    metrics.push_back({"core.prepare_s", Median(setups->prepare_s), "s"});
  } else {
    metrics = {
        {"latency_p50_ms", Median(p50s), "ms"},
        {"latency_tail_ms", Median(tails), "ms"},
        {"throughput_qps", Median(qpss), "1/s"},
        {"setup_s", Median(setups->total_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"log_rows_retained", log_rows, "rows"},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // ---- report line: everything a reader needs to interpret the run ----
  std::string setup_list;
  for (double v : setups->total_s) {
    setup_list += (setup_list.empty() ? "" : ",") + Num(v);
  }
  std::string per_kind;
  for (int k = 0; k < kNumOpKinds; ++k) {
    if (kind_ms[k].empty()) continue;
    per_kind += std::string(per_kind.empty() ? "" : ",") + "\"" +
                OpKindName(OpKind(k)) + "\":{\"p50\":" +
                Num(Median(kind_ms[k])) +
                ",\"n\":" + std::to_string(kind_ms[k].size()) + "}";
  }
  std::string report =
      "{\"workload\":\"" + std::string(WorkloadName(args.workload)) +
      "\",\"seed\":" + std::to_string(args.seed) +
      ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
      ",\"trace\":" + std::to_string(args.trace) + ",\"commit\":\"" +
      datalawyer::JsonEscape(args.commit) + "\",\"source_hash\":\"" +
      datalawyer::JsonEscape(args.source_hash) +
      "\",\"env\":" + HostEnvJson(env) +
      ",\"timed_ops\":" + std::to_string(timed_ops) +
      ",\"measured_ops\":" + std::to_string(measured) +
      ",\"elapsed_s\":" + Num(elapsed_s) +
      ",\"segment_ops\":" + std::to_string(segment_ops) +
      ",\"segments\":" + std::to_string(segments.size()) +
      ",\"tail_percentile\":" + Num(plan.tail_quantile * 100) +
      ",\"tail_samples_beyond_per_segment\":" + std::to_string(beyond) +
      ",\"error_rate\":" +
      Num(double(tally.failed) /
          double(std::max<uint64_t>(tally.attempted, 1))) +
      ",\"oracle_ops\":" + std::to_string(prefix_ops.size()) +
      ",\"oracle_mismatches\":" + std::to_string(*mismatches) +
      ",\"oracle_covers_all_kinds\":" + (covered ? "true" : "false") +
      ",\"setup_s\":[" + setup_list + "],\"per_kind_p50_ms\":{" + per_kind +
      "},\"failures\":" + JsonStrings(tally.failures);
  if (ledger) {
    report += ",\"structural_errors\":" +
              std::to_string(ledger->structural_errors()) +
              ",\"notes\":" + JsonStrings(ledger->structural_notes());
  }
  std::printf("REPORT %s}\n", report.c_str());

  bool correct = tally.failed == 0 && covered &&
                 (!ledger || ledger->structural_errors() == 0);
  std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
  }
  std::printf("%s}}\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace enforcebench

int main(int argc, char** argv) {
  enforcebench::Args args;
  if (!enforcebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload analytic|audit_mix --seed N "
                 "--seconds S --trace 0|1 [--commit SHA] [--source-hash H] "
                 "[--spans-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return enforcebench::Run(args);
}
