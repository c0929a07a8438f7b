// Hierarchical scoped tracing with per-thread ring buffers.
//
// TraceSpan is an RAII scoped timer: construction stamps wall and
// thread-CPU clocks, destruction records a SpanRecord (name, start,
// durations, thread id, nesting depth) into the ring buffer owned by the
// recording thread. When tracing is disabled — the default — a span costs
// one relaxed atomic load and nothing else, which is what lets the
// instrumentation stay compiled into every build.
//
// The hard invariant carried by the whole observability layer: recording
// never writes anywhere an analysis report could read. Spans land in
// buffers of their own, so a pipeline run with tracing enabled produces
// byte-identical Fig. 1/2 and Table 1-3 output (tests/test_obs.cpp proves
// it by diffing).
//
// Export order is deterministic given an execution: collect() returns
// spans grouped by thread in registration order, each thread's spans in
// completion order (inner spans close before outer ones, so a serial run
// yields a fixed, testable sequence). recent(n) orders by completion time
// with (tid, seq) tie-breaks instead — that is what /tracez serves.
// Ordering state is all per-thread: the record() hot path writes no
// memory shared between recording threads, so tracing N threads costs
// the same as tracing one.
//
// Ring buffers are bounded (default 4096 spans per thread); once full, the
// oldest spans are overwritten and a dropped counter advances. Tracing a
// week-long daemon therefore costs constant memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace asrel::obs {

struct SpanRecord {
  std::string name;
  std::uint64_t start_us = 0;  ///< wall clock, relative to tracer epoch
  std::uint64_t dur_us = 0;    ///< wall duration
  std::uint64_t cpu_us = 0;    ///< thread CPU time consumed inside the span
  std::uint32_t tid = 0;       ///< thread id in registration order
  std::uint32_t depth = 0;     ///< nesting depth on its thread (0 = root)
  std::uint64_t seq = 0;       ///< completion order on its thread
  std::uint64_t request_id = 0;  ///< 0 = not request-scoped
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded span and resets the sequence counter. Thread
  /// registrations (and their tids) survive, so a clear between two runs
  /// on the same threads keeps tids comparable.
  void clear();

  /// Ring capacity per recording thread. Applies to threads that register
  /// after the call; typically set once at startup.
  void set_capacity_per_thread(std::size_t capacity);

  /// All retained spans, deterministically ordered: by (tid, completion).
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// The most recent `n` spans by completion time (ties broken by
  /// (tid, seq), so the order is deterministic), oldest first.
  [[nodiscard]] std::vector<SpanRecord> recent(std::size_t n) const;

  /// Spans overwritten after their ring filled (across all threads).
  /// Counted per buffer under its own lock — the hot record() path never
  /// touches memory shared between recording threads.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Threads that have recorded a span: one ring buffer each, kept for the
  /// process's lifetime.
  [[nodiscard]] std::size_t thread_count() const;

  /// Chrome trace-event JSON ("chrome://tracing" / Perfetto "load trace"),
  /// one complete ("ph":"X") event per span.
  [[nodiscard]] std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path,
                          std::string* error = nullptr) const;

  /// Microseconds since the tracer's epoch (process start of use).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Converts a steady_clock stamp the caller already took to tracer
  /// time, saving the hot path a second clock read.
  [[nodiscard]] std::uint64_t to_trace_us(
      std::int64_t steady_since_epoch_ns) const {
    return static_cast<std::uint64_t>((steady_since_epoch_ns - epoch_ns_) /
                                      1000);
  }

  /// Called by ~TraceSpan. Public so the server can record request spans
  /// it timed itself. The second form stamps the span with the request id
  /// it was handling, so /tracez entries join against /slowz and /logz.
  void record(std::string_view name, std::uint64_t start_us,
              std::uint64_t dur_us, std::uint64_t cpu_us,
              std::uint32_t depth);
  void record(std::string_view name, std::uint64_t start_us,
              std::uint64_t dur_us, std::uint64_t cpu_us,
              std::uint32_t depth, std::uint64_t request_id);

 private:
  struct ThreadBuffer;
  Tracer();
  ThreadBuffer& buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = 4096;
};

/// RAII scoped timer. The enabled check happens once, at construction; a
/// span that began while tracing was off stays silent even if tracing
/// turns on before it closes (and vice versa), so toggling mid-request
/// never produces a torn record.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  std::uint64_t start_us_ = 0;
  std::uint64_t cpu_start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// RAII: opens a TraceSpan and also feeds the always-on stage metrics —
/// `asrel_stage_runs_total{stage=...}` and the wall-time histogram
/// `asrel_stage_duration_us{stage=...}` in MetricsRegistry::global().
/// Every §4 pipeline stage brackets itself with one of these.
class StageScope {
 public:
  explicit StageScope(const char* stage);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  TraceSpan span_;
  class Histogram* duration_ = nullptr;
  std::uint64_t start_us_ = 0;
};

/// Test/tool helper: flips tracing for one scope, restoring the previous
/// state (and clearing freshly recorded spans on exit when requested).
class ScopedTracing {
 public:
  explicit ScopedTracing(bool enabled, bool clear_on_exit = false)
      : previous_(Tracer::instance().enabled()),
        clear_on_exit_(clear_on_exit) {
    Tracer::instance().set_enabled(enabled);
  }
  ~ScopedTracing() {
    Tracer::instance().set_enabled(previous_);
    if (clear_on_exit_) Tracer::instance().clear();
  }
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

 private:
  bool previous_;
  bool clear_on_exit_;
};

}  // namespace asrel::obs
