// batch_build: the reproduction's own path at the re-anchor world size.
// Scenario::build -> core::build_snapshot -> io::save_flat_snapshot_file,
// repeated for the measured phase. Every build must write the same bytes
// and pass the flat reader's deep verify.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/bias_audit.hpp"
#include "core/snapshot_builder.hpp"
#include "infer/asrank.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "io/flat_snapshot.hpp"
#include "org/as2org.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kWorldAses = 4000;
constexpr int kWarmupAses = 1000;
constexpr int kSetupRepeats = 3;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

struct Build {
  std::unique_ptr<core::Scenario> scenario;
  double seconds = 0.0;
  bool saved = false;
};

Build build_once(const core::ScenarioParams& params, const std::string& path) {
  Build build;
  const Clock::time_point start = Clock::now();
  build.scenario = traced("core.scenario_build", "batch.build",
                          [&] { return core::Scenario::build(params); });
  const io::Snapshot snapshot =
      traced("core.build_snapshot", "batch.build",
             [&] { return core::build_snapshot(*build.scenario); });
  std::string error;
  build.saved = traced("io.flat_save", "batch.build", [&] {
    return io::save_flat_snapshot_file(snapshot, path, &error);
  });
  build.seconds = seconds_since(start);
  return build;
}

/// Times `fn` once under a span named `span` and returns milliseconds.
template <typename Fn>
double stage_ms(const char* span, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  traced(span, "stages", fn);
  return ms_between(start, Clock::now());
}

void add_upstream_stage_metrics(Result& result,
                                const core::ScenarioParams& params) {
  topo::World world;
  result.add("topology.generate_ms", stage_ms("topology.generate", [&] {
               world = topo::generate(params.topology);
             }),
             "ms");
  std::vector<bgp::VantagePoint> vps;
  result.add("bgp.select_vp_ms", stage_ms("bgp.select_vp", [&] {
               vps = bgp::select_vantage_points(world, params.vantage);
             }),
             "ms");
  bgp::PathTable paths;
  const bgp::Propagator propagator{world, params.propagation};
  result.add("bgp.collect_paths_ms", stage_ms("bgp.collect_paths", [&] {
               paths = bgp::collect_paths(propagator, vps);
             }),
             "ms");
  result.add("bgp.paths", static_cast<double>(paths.path_count()), "count");
}

void add_downstream_stage_metrics(Result& result,
                                  const core::Scenario& scenario) {
  const core::ScenarioParams& params = scenario.params();
  infer::SanitizeStats sanitize;
  result.add("infer.sanitize_ms", stage_ms("infer.sanitize", [&] {
               (void)infer::ObservedPaths::build(scenario.paths(), &sanitize);
             }),
             "ms");
  result.add("infer.sanitize_paths_in",
             static_cast<double>(sanitize.input_paths), "count");
  result.add("infer.sanitize_paths_kept", static_cast<double>(sanitize.kept),
             "count");

  val::SchemeDirectory schemes;
  result.add("validation.schemes_ms", stage_ms("validation.schemes", [&] {
               schemes = val::SchemeDirectory::build(scenario.world(),
                                                     params.scheme_seed);
             }),
             "ms");
  val::ValidationSet raw;
  const bgp::Propagator propagator{scenario.world(), params.propagation};
  result.add("validation.extract_ms", stage_ms("validation.extract", [&] {
               raw = val::extract_from_communities(
                   propagator, scenario.paths(), schemes, params.extract);
             }),
             "ms");
  result.add("validation.clean_ms", stage_ms("validation.clean", [&] {
               const org::OrgMap orgs{scenario.world().as2org};
               (void)val::clean(raw, orgs, params.cleaning);
             }),
             "ms");
  result.add("validation.labels",
             static_cast<double>(scenario.validation().size()), "count");

  infer::AsRankResult asrank;
  result.add("infer.asrank_ms", stage_ms("infer.asrank", [&] {
               asrank = infer::run_asrank(scenario.observed());
             }),
             "ms");
  infer::ProbLinkParams problink;
  problink.threads = params.threads;
  result.add("infer.problink_ms", stage_ms("infer.problink", [&] {
               (void)infer::run_problink(scenario.observed(), asrank,
                                         scenario.validation(), problink);
             }),
             "ms");
  infer::TopoScopeParams toposcope;
  toposcope.threads = params.threads;
  result.add("infer.toposcope_ms", stage_ms("infer.toposcope", [&] {
               (void)infer::run_toposcope(scenario.observed(), asrank,
                                          scenario.validation(), toposcope);
             }),
             "ms");
}

}  // namespace

bool add_pipeline_metrics(Result& result, const core::Scenario& scenario,
                          const std::string& flat_path) {
  add_upstream_stage_metrics(result, scenario.params());
  add_downstream_stage_metrics(result, scenario);
  result.add("core.bias_audit_ms", stage_ms("core.bias_audit", [&] {
               const core::BiasAudit audit{scenario};
               (void)audit;
             }),
             "ms");
  io::Snapshot snapshot;
  result.add("core.build_snapshot_ms", stage_ms("core.build_snapshot", [&] {
               snapshot = core::build_snapshot(scenario);
             }),
             "ms");
  bool saved = false;
  std::string error;
  result.add("io.flat_save_ms", stage_ms("io.flat_save", [&] {
               saved = io::save_flat_snapshot_file(snapshot, flat_path, &error);
             }),
             "ms");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(flat_path, ec);
  result.add("io.snapshot_bytes", ec ? 0.0 : static_cast<double>(bytes),
             "bytes");
  if (!saved) result.miss("flat save of " + flat_path + ": " + error);
  return saved;
}

Result run_batch_build(const Options& options) {
  Result result;
  SpanLog& spans = SpanLog::instance();

  core::ScenarioParams params;
  params.topology.as_count = kWorldAses;
  params.topology.seed = options.world_seed;

  // Set-up: warm-up builds of a smaller world of the same seed, so thread
  // pools, allocator arenas and lazy statics are in place before timing.
  core::ScenarioParams warmup = params;
  warmup.topology.as_count = kWarmupAses;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup_s.push_back(
        build_once(warmup, options.workdir + "/warmup.v3").seconds);
  }

  // Measured phase: whole builds while the next one still fits. A traced
  // run spends its first half untraced (the overhead baseline).
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::string reference;  // the first build's bytes
  std::unique_ptr<core::Scenario> last;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto run_half = [&](double budget, std::vector<double>& out) {
    const Clock::time_point start = Clock::now();
    double last_s = 0.0;
    while (out.size() < 2 || seconds_since(start) + last_s <= budget) {
      const std::string path = options.workdir + "/batch-" +
                               std::to_string(attempted % 2) + ".v3";
      last.reset();  // one world in memory at a time
      Build build = build_once(params, path);
      ++attempted;
      last_s = build.seconds;
      out.push_back(build.seconds);
      std::string error;
      const auto view = io::FlatView::open_file(path, &error, true);
      std::string bytes = read_file(path);
      bool ok = build.saved && view != nullptr;
      if (!ok) result.miss("build " + std::to_string(attempted) + ": " + error);
      if (reference.empty()) {
        reference = std::move(bytes);
      } else if (bytes != reference) {
        ok = false;
        result.miss("build " + std::to_string(attempted) +
                    " wrote different bytes than build 1");
      }
      if (!ok) ++failed;
      last = std::move(build.scenario);
    }
  };
  if (options.trace) {
    run_half(options.seconds / 2, untraced_s);
    spans.set_enabled(true);
    run_half(options.seconds / 2, traced_s);
  } else {
    run_half(options.seconds, untraced_s);
  }
  result.attempted = attempted;
  result.failed = failed;

  result.detail.push_back(
      "\"builds\":{\"count\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) +
      ",\"as_count\":" + std::to_string(kWorldAses) +
      ",\"snapshot_bytes\":" + std::to_string(reference.size()) +
      ",\"setup_repeats\":" + std::to_string(kSetupRepeats) + "}");
  const Summary build_summary = summarize(untraced_s, 0.99);
  result.detail.push_back("\"latency_samples\":" +
                          std::to_string(build_summary.samples));

  if (!options.trace) {
    result.add("setup_s", median(setup_s), "s");
    // One build -> snapshot -> flat save, Scenario::build to file.
    result.add("latency_p50_ms", median(untraced_s) * 1000.0, "ms");
    result.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return result;
  }

  // Per-layer: each module's public stage on the inputs the last build
  // used.
  (void)add_pipeline_metrics(result, *last, options.workdir + "/stages.v3");
  const double base = median(untraced_s);
  result.add("trace.overhead_pct",
             base > 0 ? (median(traced_s) - base) / base * 100.0 : 0.0, "%");
  return result;
}

}  // namespace perfbench
