#ifndef DATALAWYER_COMMON_TRACE_H_
#define DATALAWYER_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace datalawyer {

/// One completed span: a Chrome trace_event "complete" ("ph":"X") record.
/// Timestamps are microseconds on the process-wide steady clock, so events
/// from different threads share one timeline.
struct TraceEvent {
  std::string name;      ///< span label, e.g. "policy.eval:p6"
  const char* category;  ///< subsystem: "sql", "exec", "policy", ...
  double ts_us = 0;      ///< start, µs since tracer start
  double dur_us = 0;     ///< wall duration, µs
  int tid = 0;           ///< small dense thread id (0 = first seen)
  int depth = 0;         ///< nesting depth on its thread (0 = root)
  /// True for zero-duration marker events (steals, decisions): exported as
  /// Chrome "instant" records ("ph":"i") so they render as ticks, not
  /// invisible zero-width slices.
  bool instant = false;
};

/// Process-wide span collector behind the DL_TRACE_* macros.
///
/// Disabled (the default), a span costs one relaxed atomic load — cheap
/// enough to leave instrumentation in every pipeline phase permanently.
/// Enabled, each span takes a steady_clock read at open and a clock read
/// plus one mutex-guarded append at close; nesting is tracked with a
/// thread-local depth counter, so spans opened inside TaskScheduler workers
/// nest correctly on their own thread's lane.
///
/// There is exactly one tracer per process (`Tracer::Global()`): tracing is
/// a debugging instrument, and a single timeline across every DataLawyer
/// instance, pool worker, and background compaction is the point.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns collection on/off. Enabling does not clear prior events.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drops every collected event and resets the timeline origin.
  void Clear();

  /// Appends one finished span. `name` is copied; `category` must be a
  /// string literal (it is kept by pointer).
  void Record(std::string name, const char* category, double ts_us,
              double dur_us, int tid, int depth);

  /// Appends a zero-duration marker on the calling thread's lane (a Chrome
  /// "instant" event) — scheduler steals, decision ids, watchdog trips.
  void RecordInstant(std::string name, const char* category, double ts_us);

  /// Names the calling thread's lane in the Chrome export (a "thread_name"
  /// metadata record): scheduler workers register as "worker-0..N-1" so
  /// traces show named lanes instead of raw dense tids. Survives Clear()
  /// — the thread is still the same thread.
  void SetCurrentThreadName(std::string name);
  /// tid -> lane name, for tests and exporters.
  std::map<int, std::string> thread_names() const;

  /// Snapshot of all events recorded so far, in completion order.
  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}): open the string saved
  /// to a file directly in about:tracing / Perfetto.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

  /// µs since the tracer's timeline origin (process start or last Clear).
  double NowUs() const;

  /// Dense id of the calling thread, assigned on first use.
  static int CurrentThreadId();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<int, std::string> thread_names_;  ///< guarded by mu_
  std::atomic<int64_t> origin_ns_{0};  ///< steady_clock origin of the timeline
};

/// RAII span: opens on construction, records into Tracer::Global() on
/// destruction. When tracing is disabled at construction the span is inert
/// (and stays inert even if tracing is enabled mid-span).
class ScopedSpan {
 public:
  ScopedSpan(std::string name, const char* category);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  std::string name_;
  const char* category_;
  double start_us_ = 0;
  int depth_ = 0;
};

/// Span over the enclosing scope. Usage: DL_TRACE_SPAN("exec.query", "exec");
/// The variable name is derived from the line number, so one scope can hold
/// several spans.
#define DL_TRACE_CONCAT_(a, b) a##b
#define DL_TRACE_CONCAT(a, b) DL_TRACE_CONCAT_(a, b)
#define DL_TRACE_SPAN(name, category) \
  ::datalawyer::ScopedSpan DL_TRACE_CONCAT(dl_span_, __LINE__)(name, category)

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_TRACE_H_
