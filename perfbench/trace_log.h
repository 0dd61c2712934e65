// The benchmark's own spans (name, start, end, parent, thread) around
// each public call it makes, kept in memory and written at the end as
// Chrome trace JSON next to the program's own obs::Tracer events.
// Timestamps share the tracer's clock, so both tracks line up in
// chrome://tracing or ui.perfetto.dev: the program's events are pid 1,
// the benchmark's pid 2.
#ifndef BIRCH_PERFBENCH_TRACE_LOG_H_
#define BIRCH_PERFBENCH_TRACE_LOG_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // string literal
  int parent = -1;             // index into the same log, -1 = root
  uint32_t tid = 0;
  int64_t start_ns = 0;  // tracer clock
  int64_t end_ns = 0;
};

/// Thread-safe span log. Begin() returns the span's id; End() closes it.
class TraceLog {
 public:
  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  int Begin(const char* name, int parent = -1);
  void End(int id);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log makes it a no-op, which is how untraced
/// repetitions run the same code path.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog* log, const char* name, int parent = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  TraceLog* log_;
  int id_;
};

/// Per-name totals of a span set: `total_s` is the summed duration,
/// `self_s` the duration minus what same-thread child spans cover, and
/// `max_s` the longest single span.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double max_s = 0.0;
};
using SpanTable = std::map<std::string, SpanTotals>;

/// Totals of the benchmark's spans (parents by explicit id).
SpanTable Summarize(const std::vector<Span>& spans);
/// Totals of the program's begin/end events (parents by nesting on
/// each thread). Only spans that begin before `cutoff_us` count.
SpanTable Summarize(const std::vector<birch::obs::TraceEvent>& events,
                    uint64_t cutoff_us = UINT64_MAX);

/// Chrome trace_event JSON with both tracks.
std::string ChromeTraceJson(const std::vector<birch::obs::TraceEvent>& program,
                            const std::vector<Span>& bench);

}  // namespace perfbench

#endif  // BIRCH_PERFBENCH_TRACE_LOG_H_
