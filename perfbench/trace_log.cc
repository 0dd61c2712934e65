#include "perfbench/trace_log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "util/json.h"

namespace perfbench {
namespace {

using birch::obs::TraceEvent;
using Clock = std::chrono::steady_clock;

uint32_t ThisThread() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Nanoseconds on the program tracer's clock (its epoch, finer ticks).
int64_t NowNs() {
  static const Clock::time_point epoch =
      Clock::now() -
      std::chrono::microseconds(birch::obs::Tracer::Default().NowUs());
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::string Quoted(const char* s) {
  return "\"" + birch::JsonWriter::Escape(s) + "\"";
}

void Add(SpanTotals* t, double dur_s, double self_s) {
  ++t->count;
  t->total_s += dur_s;
  t->self_s += self_s;
  t->max_s = std::max(t->max_s, dur_s);
}

}  // namespace

int TraceLog::Begin(const char* name, int parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.tid = ThisThread();
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void TraceLog::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> TraceLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanTable Summarize(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].tid == s.tid) {
      child_s[static_cast<size_t>(s.parent)] += (s.end_ns - s.start_ns) / 1e9;
    }
  }
  SpanTable table;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = (spans[i].end_ns - spans[i].start_ns) / 1e9;
    Add(&table[spans[i].name], dur, dur - child_s[i]);
  }
  return table;
}

SpanTable Summarize(const std::vector<TraceEvent>& events,
                    uint64_t cutoff_us) {
  struct Open {
    const char* name;
    uint64_t start_us;
    double child_s;
  };
  std::map<uint32_t, std::vector<Open>> stacks;
  SpanTable table;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::kBegin) {
      stacks[e.tid].push_back({e.name, e.ts_us, 0.0});
    } else if (e.phase == TraceEvent::Phase::kEnd) {
      auto& stack = stacks[e.tid];
      if (stack.empty()) continue;  // its begin predates recording
      Open open = stack.back();
      stack.pop_back();
      const double dur = (e.ts_us - open.start_us) / 1e6;
      if (!stack.empty()) stack.back().child_s += dur;
      if (open.start_us < cutoff_us) {
        Add(&table[open.name], dur, dur - open.child_s);
      }
    }
  }
  return table;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& program,
                            const std::vector<Span>& bench) {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const TraceEvent& e : program) {
    sep();
    out += "{\"name\":" + Quoted(e.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"%c\",\"ts\":%" PRIu64 ",\"pid\":1,\"tid\":%u",
                  static_cast<char>(e.phase), e.ts_us, e.tid);
    out += buf;
    if (e.phase == TraceEvent::Phase::kCounter) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.17g}", e.value);
      out += buf;
    } else if (e.phase == TraceEvent::Phase::kInstant) {
      out += ",\"s\":\"t\"";
    }
    out += "}";
  }
  for (const Span& s : bench) {
    sep();
    out += "{\"name\":" + Quoted(s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,"
                  "\"tid\":%u,\"args\":{\"parent\":",
                  s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, s.tid);
    out += buf;
    out += s.parent >= 0 ? Quoted(bench[static_cast<size_t>(s.parent)].name)
                         : std::string("null");
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
