#ifndef DIALBENCH_TRACE_H_
#define DIALBENCH_TRACE_H_

// Span recorder for dialbench's traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions (no
// spans live inside src/), kept in memory, and written once at exit as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
//
// Every span carries an id, its parent's id (0 = root) and an optional
// request id, so one request's stages can be summed even when they ran on
// different threads (a scheduler batch span is the parent of the per-request
// execution spans it served).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/json.h"

namespace dialbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span clock: steady-clock microseconds, the scheduler's enqueue clock.
inline int64_t NowUs() { return NowNs() / 1000; }

struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t req = -1;     // request id; -1 = not part of a request
  uint32_t tid = 0;
  int64_t dur() const { return end_us - start_us; }
};

/// count / busy / self time of every span with one name.
struct SpanSummary {
  size_t count = 0;
  double busy_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span (no-op when disabled). Returns its id, which
  /// is `id` when non-zero, else a fresh one.
  uint64_t Record(const std::string& name, int64_t start_us, int64_t end_us,
                  uint64_t parent = 0, int64_t req = -1, uint64_t id = 0) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.start_us = start_us;
    span.end_us = end_us;
    span.id = id != 0 ? id : NewId();
    span.parent = parent;
    span.req = req;
    span.tid = ThreadTag();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Per-name count, busy time and self time (duration minus the part of
  /// it covered by the span's children).
  std::map<std::string, SpanSummary> Summarize() const {
    const std::vector<Span> all = spans();
    std::unordered_map<uint64_t, std::vector<const Span*>> children;
    for (const Span& s : all) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, SpanSummary> out;
    for (const Span& s : all) {
      SpanSummary& sum = out[s.name];
      ++sum.count;
      sum.busy_us += static_cast<double>(s.dur());
      sum.self_us += static_cast<double>(SelfUs(s, children));
    }
    return out;
  }

  /// Self time of one span given the parent -> children map.
  static int64_t SelfUs(
      const Span& s,
      const std::unordered_map<uint64_t, std::vector<const Span*>>& children) {
    auto it = children.find(s.id);
    if (it == children.end()) return s.dur();
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span* c : it->second) {
      const int64_t a = std::max(c->start_us, s.start_us);
      const int64_t b = std::min(c->end_us, s.end_us);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < a) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    return s.dur() - covered;
  }

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeJson(const std::string& path, const std::string& workload) const {
    const std::vector<Span> all = spans();
    int64_t t0 = INT64_MAX;
    for (const Span& s : all) t0 = std::min(t0, s.start_us);
    if (all.empty()) t0 = 0;
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
        << dial::serve::JsonValue::Str(workload).Dump() << "},\"traceEvents\":[";
    bool first = true;
    for (const Span& s : all) {
      if (!first) out << ",\n";
      first = false;
      const std::string cat = s.name.substr(0, s.name.find('.'));
      out << "{\"name\":" << dial::serve::JsonValue::Str(s.name).Dump()
          << ",\"cat\":" << dial::serve::JsonValue::Str(cat).Dump()
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << (s.start_us - t0) << ",\"dur\":" << s.dur()
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"req\":" << s.req << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static uint32_t ThreadTag() {
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
    return tag;
  }

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span; returns the call's seconds
/// whether or not tracing is on.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, Fn&& fn, uint64_t parent = 0) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  tracer.Record(name, start / 1000, end / 1000, parent);
  return static_cast<double>(end - start) / 1e9;
}

/// Re-reads a written trace and checks it: it parses as trace-event JSON,
/// every event is a well-formed complete event with a unique id, and every
/// non-root parent id names an event in the file. Returns "" when sound,
/// otherwise the first problem found.
inline std::string CheckTraceFile(const std::string& path, size_t* events_out) {
  std::ifstream in(path);
  if (!in) return "cannot open " + path;
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = dial::serve::ParseJson(buf.str());
  if (!parsed.ok()) return "not JSON: " + parsed.status().ToString();
  const dial::serve::JsonValue* events = parsed.value().Get("traceEvents");
  if (events == nullptr || !events->is_array()) return "no traceEvents array";
  std::unordered_set<uint64_t> ids;
  std::vector<uint64_t> parents;
  for (const dial::serve::JsonValue& e : events->items()) {
    const dial::serve::JsonValue* args = e.Get("args");
    if (e.GetString("ph", "") != "X" || e.GetString("name", "").empty() ||
        e.GetNumber("ts", -1) < 0 || e.GetNumber("dur", -1) < 0 ||
        args == nullptr || !args->is_object()) {
      return "malformed event: " + e.Dump();
    }
    const auto id = static_cast<uint64_t>(args->GetNumber("id", 0));
    if (id == 0 || !ids.insert(id).second) return "missing or repeated id: " + e.Dump();
    parents.push_back(static_cast<uint64_t>(args->GetNumber("parent", 0)));
  }
  for (const uint64_t p : parents) {
    if (p != 0 && ids.count(p) == 0) {
      return "parent " + std::to_string(p) + " not in trace";
    }
  }
  if (events_out != nullptr) *events_out = ids.size();
  return "";
}

}  // namespace dialbench

#endif  // DIALBENCH_TRACE_H_
