// In-memory spans recorded around the harness's calls into each layer.
//
// Spans live only in the benchmark's own code: workload -> replica ->
// setup | run | export, plus one span per layer driver. They are kept in
// memory while the workload runs and written once at the end as a Chrome
// trace_event document (the format the library's obs tracer exports).
// Self time is a span's duration minus the part of its interval covered by
// its children (children of a sweep span run on several threads and may
// overlap, so covered time is the union of their intervals). The clock
// and median helpers every harness file times with live here too.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class SpanRecorder {
 public:
  struct SelfTime {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Recording gate; a disabled recorder costs one branch per span. Only
  /// flipped while no sweep workers are running.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (-1 when disabled). `parent` -1
  /// means the innermost span this thread has open.
  int open(std::string name, int parent = -1) {
    if (!enabled_) return -1;
    const double now = std::chrono::duration<double>(Clock::now() - origin_)
                           .count();
    std::vector<int>& stack = thread_stack();
    if (parent < 0 && !stack.empty()) parent = stack.back();
    std::lock_guard<std::mutex> lock(mu_);
    const unsigned tid =
        tids_.try_emplace(std::this_thread::get_id(),
                          static_cast<unsigned>(tids_.size()))
            .first->second;
    spans_.push_back({std::move(name), parent, tid, now, now});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    const double now = std::chrono::duration<double>(Clock::now() - origin_)
                           .count();
    std::vector<int>& stack = thread_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
  }

  /// Count, total and self seconds per span name.
  std::map<std::string, SelfTime> self_times() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SelfTime> out;
    const auto self = self_seconds();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SelfTime& t = out[spans_[i].name];
      ++t.count;
      t.total_s += spans_[i].end_s - spans_[i].start_s;
      t.self_s += self[i];
    }
    return out;
  }

  /// Chrome trace_event document: one complete ("X") event per span with
  /// its self time and parent in args; `metadata` is a JSON object.
  std::string chrome_json(const std::string& metadata) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto self = self_seconds();
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject args;
      args.num("self_us", self[i] * 1e6).raw("parent",
                                             std::to_string(s.parent));
      JsonObject ev;
      ev.str("name", s.name)
          .str("cat", "perfbench")
          .str("ph", "X")
          .num("ts", s.start_s * 1e6)
          .num("dur", (s.end_s - s.start_s) * 1e6)
          .integer("pid", 1)
          .integer("tid", s.tid)
          .integer("id", i)
          .raw("args", args.dump());
      if (i > 0) out += ",\n";
      out += ev.dump();
    }
    out += "],\"displayTimeUnit\":\"ms\",\"metadata\":" + metadata + "}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    unsigned tid = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  static std::vector<int>& thread_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  // Caller holds mu_.
  std::vector<double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                  s.end_s);
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0, reach = spans_[i].start_s;
      for (const auto& [lo, hi] : kids) {
        const double from = std::max(lo, reach);
        const double to = std::min(hi, spans_[i].end_s);
        if (to > from) covered += to - from;
        reach = std::max(reach, std::min(hi, spans_[i].end_s));
      }
      self[i] = (spans_[i].end_s - spans_[i].start_s) - covered;
    }
    return self;
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, unsigned> tids_;
};

/// RAII span; inert when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent = -1)
      : recorder_(recorder), id_(recorder.open(std::move(name), parent)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
