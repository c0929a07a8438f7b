// asrel_perfbench: one workload per invocation, self-checking.
//
//   asrel_perfbench --workload batch_build|live_churn|serve_static
//                   --seconds S [--seed N] [--world-seed N] [--trace 0|1]
//                   [--workdir DIR]
//   asrel_perfbench --list-metrics
//
// Standard output ends with two JSON lines: the run's accounting (build
// environment, seeds, per-phase sent/succeeded/failed, lateness, backlog,
// sample counts, flagged percentiles) and then the result
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// which holds the end-to-end metrics when untraced and the per-layer
// metrics when traced, the same names on every workload. A traced run's
// metrics of the layers only its workload runs (stream, serve) are in the
// accounting line under "layers". Any correctness miss makes the exit
// code 1.
// Timings from a sanitizer or unoptimized build are refused (exit 2).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line's metrics: the same names on every workload, as
// BENCHMARK.json lists them (test_perfbench.py checks that, and main()
// checks every run against these lists).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"peak_rss_mb", "MiB"}};

const std::vector<MetricSpec> kPerLayer = {
    {"topology.generate_ms", "ms"},
    {"bgp.select_vp_ms", "ms"},
    {"bgp.collect_paths_ms", "ms"},
    {"bgp.paths", "count"},
    {"infer.sanitize_ms", "ms"},
    {"infer.sanitize_paths_in", "count"},
    {"infer.sanitize_paths_kept", "count"},
    {"infer.asrank_ms", "ms"},
    {"infer.problink_ms", "ms"},
    {"infer.toposcope_ms", "ms"},
    {"validation.schemes_ms", "ms"},
    {"validation.extract_ms", "ms"},
    {"validation.clean_ms", "ms"},
    {"validation.labels", "count"},
    {"core.bias_audit_ms", "ms"},
    {"core.build_snapshot_ms", "ms"},
    {"io.flat_save_ms", "ms"},
    {"io.snapshot_bytes", "bytes"},
    {"trace.overhead_pct", "%"}};

struct WorkloadSpec {
  const char* name;
  Result (*run)(const Options&);
  /// Traced-run metrics of the layers only this workload runs; printed in
  /// the accounting line under "layers".
  std::vector<MetricSpec> layers;
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"batch_build", run_batch_build, {}},
      {"live_churn",
       run_live_churn,
       {{"stream.queue_wait_p50_ms", "ms"},
        {"stream.queue_wait_p99_ms", "ms"},
        {"stream.backlog_max", "count"},
        {"stream.generator_late_ms", "ms"},
        {"stream.apply_p50_ms", "ms"},
        {"stream.apply_p99_ms", "ms"},
        {"stream.apply_total_ms", "ms"},
        {"stream.origins_redone", "count"},
        {"stream.dirty_ratio", "ratio"},
        {"stream.events_per_epoch", "count"},
        {"stream.publish_p50_ms", "ms"},
        {"stream.publish_p99_ms", "ms"},
        {"serve.hub_publish_ms", "ms"},
        {"stream.checkpoint_bytes", "bytes"},
        {"stream.checkpoint_encode_ms", "ms"},
        {"stream.checkpoint_decode_ms", "ms"},
        {"stream.restore_ms", "ms"},
        {"serve.handle_rel_us", "us"},
        {"serve.handle_as_us", "us"},
        {"serve.handle_report_us", "us"},
        {"serve.engine_rel_ns", "ns"},
        {"serve.rel_cache_hit_ratio", "ratio"},
        {"serve.report_cache_hit_ratio", "ratio"},
        {"serve.bytes_per_response", "bytes"}}},
      {"serve_static",
       run_serve_static,
       {{"serve.handle_rel_us", "us"},
        {"serve.handle_as_us", "us"},
        {"serve.handle_report_us", "us"},
        {"serve.wire_us", "us"},
        {"serve.parse_us", "us"},
        {"serve.render_us", "us"},
        {"serve.engine_rel_ns", "ns"},
        {"serve.rel_cache_hit_ratio", "ratio"},
        {"serve.report_cache_hit_ratio", "ratio"},
        {"serve.bytes_per_response", "bytes"},
        {"io.flat_open_us", "us"}}},
  };
  return specs;
}

/// Misses for any metric in `printed` that is not in `declared`, has
/// another unit, repeats, or for any declared one that is missing.
void check_printed(Result& result, const std::vector<Metric>& printed,
                   const std::vector<MetricSpec>& declared) {
  std::set<std::string> seen;
  for (const auto& metric : printed) {
    const auto it = std::find_if(
        declared.begin(), declared.end(),
        [&](const MetricSpec& m) { return metric.name == m.name; });
    if (it == declared.end() || metric.unit != it->unit ||
        !seen.insert(metric.name).second) {
      result.miss("undeclared or duplicate metric " + metric.name);
    }
  }
  if (seen.size() != declared.size()) {
    result.miss("a declared metric was not measured");
  }
}

// ---- build environment -----------------------------------------------------

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

bool ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string environment_json(const Options& options) {
  std::string out = "{";
  out += "\"compiler\":" + json_string(__VERSION__);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS);
  out += ",\"optimize\":" + std::string(optimized() ? "true" : "false");
  out += ",\"ndebug\":" + std::string(ndebug() ? "true" : "false");
  out += ",\"sanitizer\":" + std::string(sanitized() ? "true" : "false");
  out += ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"nproc\":" + std::to_string(affinity_cpus());
  out += ",\"workload\":" + json_string(options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"world_seed\":" + std::to_string(options.world_seed);
  out += ",\"seconds\":" + json_number(options.seconds);
  out += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  out += "}";
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& metric = metrics[i];
    if (i > 0) out += ",";
    out += json_string(metric.name) + ":{\"value\":" +
           json_number(metric.value) + ",\"unit\":" +
           json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string specs_json(const std::vector<MetricSpec>& list) {
  std::string out = "[";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ",";
    out += "[" + json_string(list[i].name) + "," + json_string(list[i].unit) +
           "]";
  }
  return out + "]";
}

/// {"end_to_end":[[name,unit],..],"per_layer":[..],
///  "workloads":{name:{"layers":[..]},..}}
void list_metrics() {
  std::string out = "{\"end_to_end\":" + specs_json(kEndToEnd) +
                    ",\"per_layer\":" + specs_json(kPerLayer) +
                    ",\"workloads\":{";
  for (std::size_t i = 0; i < workload_specs().size(); ++i) {
    const auto& spec = workload_specs()[i];
    if (i > 0) out += ",";
    out += json_string(spec.name) + ":{\"layers\":" + specs_json(spec.layers) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: asrel_perfbench --workload "
               "batch_build|live_churn|serve_static --seconds S "
               "[--seed N] [--world-seed N] [--trace 0|1] "
               "[--workdir DIR]\n"
               "       asrel_perfbench --list-metrics\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
    } else if (flag == "--world-seed" && parse_u64(value, &number)) {
      options.world_seed = number;
    } else if (flag == "--seconds" && parse_u64(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& candidate : workload_specs()) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr || options.seconds <= 0) return usage();

  if (sanitized() || !optimized()) {
    std::fprintf(stderr,
                 "refusing to report timings: this build is %s; build "
                 "perfbench/ with -DCMAKE_BUILD_TYPE=Release\n",
                 sanitized() ? "sanitized" : "unoptimized (-O0)");
    return 2;
  }
  if (options.workdir.empty()) {
    options.workdir = (std::filesystem::temp_directory_path() /
                       ("asrel_perfbench_" + options.workload))
                          .string();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu world %llu, %g s%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(options.world_seed),
               options.seconds, options.trace ? ", traced" : "");
  Result result = spec->run(options);

  // The printed sets must be exactly the declared ones for this mode.
  std::vector<Metric> layers;
  if (options.trace) {
    const auto own = std::stable_partition(
        result.metrics.begin(), result.metrics.end(), [&](const Metric& m) {
          return std::none_of(
              spec->layers.begin(), spec->layers.end(),
              [&](const MetricSpec& l) { return m.name == l.name; });
        });
    layers.assign(own, result.metrics.end());
    result.metrics.erase(own, result.metrics.end());
    check_printed(result, layers, spec->layers);
  }
  check_printed(result, result.metrics, options.trace ? kPerLayer : kEndToEnd);

  if (options.trace) {
    const std::string path =
        options.workdir + "/spans-" + options.workload + ".jsonl";
    if (SpanLog::instance().write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   SpanLog::instance().size(), path.c_str());
    } else {
      result.miss("cannot write " + path);
    }
  } else if (SpanLog::instance().size() != 0) {
    result.miss("untraced run recorded spans");
  }

  for (const auto& miss : result.misses) {
    std::fprintf(stderr, "CORRECTNESS MISS: %s\n", miss.c_str());
  }
  const bool correct = result.misses.empty();

  std::string detail = "{\"environment\":" + environment_json(options);
  for (const auto& fragment : result.detail) detail += "," + fragment;
  if (options.trace) detail += ",\"layers\":" + metrics_json(layers);
  detail += ",\"flagged_percentiles\":[";
  for (std::size_t i = 0; i < result.flagged.size(); ++i) {
    if (i > 0) detail += ",";
    detail += json_string(result.flagged[i]);
  }
  detail += "],\"misses\":[";
  for (std::size_t i = 0; i < result.misses.size(); ++i) {
    if (i > 0) detail += ",";
    detail += json_string(result.misses[i]);
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false");
  line += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(
                                  result.attempted, 1));
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":" + metrics_json(result.metrics) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && result.failed == 0 ? 0 : 1;
}
