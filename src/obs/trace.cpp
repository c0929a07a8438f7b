#include "obs/trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace asrel::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Nesting depth of live (recording) spans on this thread.
thread_local std::uint32_t t_depth = 0;

}  // namespace

struct Tracer::ThreadBuffer {
  mutable std::mutex mutex;
  std::uint32_t tid = 0;
  std::size_t capacity = 0;      ///< fixed at registration
  std::vector<SpanRecord> ring;  ///< grows to capacity, then wraps
  std::size_t next = 0;          ///< ring write cursor
  std::uint64_t written = 0;     ///< total records ever written
  std::uint64_t dropped = 0;     ///< overwritten records (ring was full)
};

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>((steady_ns() - epoch_ns_) / 1000);
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  // The calling thread's buffer, owned by the Tracer (never freed, so a
  // late record from an exiting thread cannot dangle).
  static thread_local ThreadBuffer* buffer_of_thread = nullptr;
  if (buffer_of_thread != nullptr) return *buffer_of_thread;
  std::lock_guard<std::mutex> lock{registry_mutex_};
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  buffer->capacity = capacity_;
  buffer->ring.reserve(capacity_);
  buffer_of_thread = buffer.get();
  buffers_.push_back(std::move(buffer));
  return *buffer_of_thread;
}

std::size_t Tracer::thread_count() const {
  std::lock_guard<std::mutex> lock{registry_mutex_};
  return buffers_.size();
}

void Tracer::set_capacity_per_thread(std::size_t capacity) {
  std::lock_guard<std::mutex> lock{registry_mutex_};
  capacity_ = capacity == 0 ? 1 : capacity;
}

void Tracer::record(std::string_view name, std::uint64_t start_us,
                    std::uint64_t dur_us, std::uint64_t cpu_us,
                    std::uint32_t depth) {
  record(name, start_us, dur_us, cpu_us, depth, 0);
}

void Tracer::record(std::string_view name, std::uint64_t start_us,
                    std::uint64_t dur_us, std::uint64_t cpu_us,
                    std::uint32_t depth, std::uint64_t request_id) {
  ThreadBuffer& buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock{buffer.mutex};
  if (buffer.ring.size() < buffer.capacity) {
    buffer.ring.emplace_back();
  } else {
    ++buffer.dropped;
  }
  // Overwrite in place: assign() reuses the evicted record's string
  // capacity, so a full ring records without touching the allocator.
  SpanRecord& span = buffer.ring[buffer.next];
  span.name.assign(name.data(), name.size());
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.cpu_us = cpu_us;
  span.tid = buffer.tid;
  span.depth = depth;
  span.seq = buffer.written;  // per-thread completion index
  span.request_id = request_id;
  buffer.next = (buffer.next + 1) % buffer.capacity;
  ++buffer.written;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock{registry_mutex_};
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buf{buffer->mutex};
    buffer->ring.clear();
    buffer->next = 0;
    buffer->written = 0;
    buffer->dropped = 0;
  }
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock{registry_mutex_};
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buf{buffer->mutex};
    total += buffer->dropped;
  }
  return total;
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock{registry_mutex_};
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buf{buffer->mutex};
    // The ring holds records in write order once unrolled from `next`.
    const std::size_t n = buffer->ring.size();
    const std::size_t start = buffer->written > n ? buffer->next % n : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(buffer->ring[(start + i) % n]);
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::recent(std::size_t n) const {
  std::vector<SpanRecord> all = collect();
  // Completion time, with (tid, seq) breaking sub-microsecond ties — a
  // total, deterministic order over any fixed set of records.
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              const std::uint64_t end_a = a.start_us + a.dur_us;
              const std::uint64_t end_b = b.start_us + b.dur_us;
              if (end_a != end_b) return end_a < end_b;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  if (all.size() > n) all.erase(all.begin(), all.end() - n);
  return all;
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = collect();
  std::string out;
  out.reserve(spans.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    append_json_escaped(out, span.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(span.tid);
    out += ",\"ts\":";
    out += std::to_string(span.start_us);
    out += ",\"dur\":";
    out += std::to_string(span.dur_us);
    out += ",\"args\":{\"cpu_us\":";
    out += std::to_string(span.cpu_us);
    out += ",\"depth\":";
    out += std::to_string(span.depth);
    out += "}}";
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::string* error) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << chrome_trace_json() << '\n';
  if (!out) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- TraceSpan

TraceSpan::TraceSpan(std::string_view name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  name_ = std::string{name};
  depth_ = t_depth++;
  start_us_ = tracer.now_us();
  cpu_start_ns_ = thread_cpu_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  --t_depth;
  Tracer& tracer = Tracer::instance();
  const std::uint64_t end_us = tracer.now_us();
  const std::uint64_t cpu_end_ns = thread_cpu_ns();
  tracer.record(name_, start_us_, end_us - start_us_,
                (cpu_end_ns - cpu_start_ns_) / 1000, depth_);
}

// ---------------------------------------------------------------- StageScope

StageScope::StageScope(const char* stage) : span_(stage) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const std::string label = std::string{"{stage=\""} + stage + "\"}";
  registry
      .counter("asrel_stage_runs_total" + label,
               "Completed executions per pipeline stage")
      .inc();
  duration_ = &registry.histogram(
      "asrel_stage_duration_us" + label, stage_buckets_us(),
      "Wall time per pipeline stage execution (microseconds)");
  start_us_ = Tracer::instance().now_us();
}

StageScope::~StageScope() {
  duration_->observe(
      static_cast<double>(Tracer::instance().now_us() - start_us_));
}

}  // namespace asrel::obs
