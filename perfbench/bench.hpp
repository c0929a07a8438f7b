// Shared plumbing of the benchmark program: run options, the result
// record each workload fills, the benchmark's own span log, and timing
// summaries with their sample counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace asrel::core {
struct ScenarioParams;
class Scenario;
}  // namespace asrel::core

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;          ///< workload seed: churn and request draws
  std::uint64_t world_seed = 42;   ///< the world every workload is built on
  double seconds = 0.0;            ///< measured phase length (--seconds)
  bool trace = false;              ///< per-layer run (spans on)
  std::string workdir;             ///< scratch files for this run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A nearest-rank timing summary: median, one tail percentile, the sample
/// count, and whether the tail is backed by at least ten samples.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_p = 0.99;
  std::size_t beyond = 0;
  bool supported = false;
};

[[nodiscard]] Summary summarize(std::vector<double> values, double tail_p);

/// Everything one run produces. `detail` collects JSON members (already
/// rendered `"key":value` fragments) for the per-phase accounting line.
/// In a traced run, main() moves the metrics of the layers only this
/// workload runs (stream, serve) from `metrics` to the accounting line.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> misses;  ///< one line per correctness miss
  std::vector<std::string> detail;
  std::vector<std::string> flagged;  ///< percentiles with < 10 beyond

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void miss(std::string what) {
    misses.push_back(std::move(what));
  }
  /// Records a summary in the detail line under `name` (value unit) and
  /// flags its tail when fewer than ten samples back it.
  void note_summary(const std::string& name, const Summary& summary,
                    std::string_view unit);
};

/// Shortest round-trip rendering of a double (JSON number).
[[nodiscard]] std::string json_number(double value);

// ---- spans -----------------------------------------------------------------

/// The benchmark's own spans around calls into each module. Kept in
/// per-thread buffers in memory and written out when the run ends; when
/// disabled (the untraced run) nothing is recorded and no clock is read.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    const char* parent = "";
    std::int64_t start_ns = 0;  ///< since the log was created
    std::int64_t dur_ns = 0;
  };

  static SpanLog& instance();

  /// Traced runs switch spans on for the second half of their measured
  /// phase (the first half is the in-run untraced baseline).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const char* name, const char* parent, Clock::time_point start,
              Clock::time_point end);

  /// Durations (ms) of every span named `name`, in record order per thread.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  SpanLog() : origin_(Clock::now()) {}
  std::vector<Span>& local_buffer();

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards buffers_ (registration, reads)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times `fn()` under a span named `name` when tracing; plain call
/// otherwise.
template <typename Fn>
decltype(auto) traced(const char* name, const char* parent, Fn&& fn) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled()) return fn();
  struct Closer {
    SpanLog& log;
    const char* name;
    const char* parent;
    Clock::time_point start = Clock::now();
    ~Closer() { log.record(name, parent, start, Clock::now()); }
  } closer{log, name, parent};
  return fn();
}

// ---- workloads -------------------------------------------------------------

Result run_batch_build(const Options& options);
Result run_live_churn(const Options& options);
Result run_serve_static(const Options& options);

/// The per-layer metrics every workload prints: each pipeline module's
/// public function re-run once on the inputs the workload's pipeline used
/// (topology/bgp from the scenario parameters, infer/validation on the
/// scenario's own paths, then the bias audit, the snapshot assembly and
/// the flat save to `flat_path`). Returns false if the save failed.
bool add_pipeline_metrics(Result& result, const asrel::core::Scenario& scenario,
                          const std::string& flat_path);

/// Seconds since `start`; milliseconds from `a` to `b`.
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
