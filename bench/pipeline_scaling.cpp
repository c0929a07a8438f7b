// Scaling bench for the deterministic parallel pipeline.
//
// Every stage ported onto core::ThreadPool — BGP path collection,
// community extraction, sanitize (ObservedPaths::build), ProbLink,
// TopoScope, and the BiasAudit tabulation — is timed serial vs 2/4/8
// workers, and each threaded run's output is byte-compared against the
// serial baseline (the determinism contract, not just a statistical
// check). ASRank is a serial stage; its row runs the same serial code at
// every setting, so it shows the stage's share of the pipeline and its
// run-to-run spread. Emits BENCH_pipeline.json; the recorded
// hardware_threads puts the speedups in context — on a single-core runner
// every parallel run degenerates to roughly serial wall-clock.
//
// ASREL_AS_COUNT / ASREL_SEED override the world (default here is a
// 4000-AS world so the bench stays interactive on small runners).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "io/as_rel.hpp"
#include "io/validation_io.hpp"
#include "serve/json.hpp"

namespace {

using namespace asrel;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string rel_bytes(const infer::Inference& inference) {
  std::ostringstream out;
  io::write_as_rel(inference, out);
  return out.str();
}

std::string path_bytes(const bgp::PathTable& table) {
  std::ostringstream out;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    out << ref.vp_index << '|' << ref.origin << ':';
    for (const auto hop : ref.path) out << hop.value() << ',';
    out << '\n';
  });
  return out.str();
}

std::string observed_bytes(const infer::ObservedPaths& observed) {
  std::ostringstream out;
  // Hops, slots and VPs of every path enter as one word hash: the arena
  // holds millions of hops, and rendering them would swamp the timing.
  std::uint64_t paths = 0xcbf29ce484222325ull;
  const auto mix = [&paths](std::uint64_t word) {
    paths = (paths ^ word) * 0x100000001b3ull;
  };
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    mix(observed.vp_of_path(p));
    for (const infer::AsIndex hop : observed.path(p)) mix(hop);
    for (const std::uint32_t slot : observed.path_slots(p)) mix(slot);
  }
  out << "paths " << observed.path_count() << ' ' << paths << '\n';
  for (std::size_t vp = 0; vp < observed.vp_count(); ++vp) {
    const auto index = static_cast<std::uint16_t>(vp);
    out << "vp " << vp << ':' << observed.origin_count(index);
    for (const infer::FirstHop& hop : observed.first_hops(index)) {
      out << ' ' << hop.as << '=' << hop.count;
    }
    out << '\n';
  }
  for (infer::LinkId id = 0; id < observed.link_count(); ++id) {
    const auto& link = observed.link_order()[id];
    out << link.a.value() << '-' << link.b.value() << ':'
        << observed.link_occurrences(id) << ','
        << observed.link_vp_count(id) << '\n';
  }
  for (const infer::AsIndex index : observed.rank_order()) {
    out << observed.asn_at(index).value() << ':'
        << observed.transit_degree(index) << ','
        << observed.node_degree(index) << '\n';
  }
  return out.str();
}

std::string validation_bytes(const val::ValidationSet& set) {
  std::ostringstream out;
  io::write_validation(set, out);
  return out.str();
}

struct Run {
  unsigned threads;
  double ms;
  bool identical;
};

struct Stage {
  std::string name;
  double serial_ms = 0.0;
  std::vector<Run> runs;
};

constexpr unsigned kThreadCounts[] = {2, 4, 8};

/// Times `fn(threads)` serial-first, then at each threaded setting, byte-
/// comparing every threaded result against the serial one.
template <typename Fn>
Stage run_stage(const char* name, Fn&& fn) {
  Stage stage;
  stage.name = name;
  auto t0 = Clock::now();
  const std::string baseline = fn(1u);
  stage.serial_ms = ms_since(t0);
  std::printf("%-16s serial %9.1f ms\n", name, stage.serial_ms);
  for (const unsigned threads : kThreadCounts) {
    t0 = Clock::now();
    const std::string result = fn(threads);
    const double ms = ms_since(t0);
    const bool identical = result == baseline;
    std::printf("%-16s x%-5u %9.1f ms  speedup %.2fx  %s\n", name, threads,
                ms, stage.serial_ms / ms,
                identical ? "byte-identical" : "OUTPUT DIVERGED");
    stage.runs.push_back({threads, ms, identical});
  }
  return stage;
}

}  // namespace

int main() {
  core::ScenarioParams params;
  params.topology.as_count = bench::env_int("ASREL_AS_COUNT", 4000);
  params.topology.seed =
      static_cast<std::uint64_t>(bench::env_int("ASREL_SEED", 42));

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("== pipeline_scaling (%d ASes, seed %llu, %u hardware threads) ==\n",
              params.topology.as_count,
              static_cast<unsigned long long>(params.topology.seed), hardware);

  const auto scenario = core::Scenario::build(params);
  const auto& observed = scenario->observed();
  const auto asrank = infer::run_asrank(observed);

  std::vector<Stage> stages;

  stages.push_back(run_stage("collect_paths", [&](unsigned threads) {
    bgp::PropagationParams prop = scenario->params().propagation;
    prop.threads = threads;
    const bgp::Propagator propagator{scenario->world(), prop};
    return path_bytes(bgp::collect_paths(propagator,
                                         scenario->vantage_points()));
  }));

  stages.push_back(run_stage("extract", [&](unsigned threads) {
    val::ExtractParams extract = scenario->params().extract;
    extract.threads = threads;
    return validation_bytes(val::extract_from_communities(
        scenario->propagator(), scenario->paths(), scenario->schemes(),
        extract));
  }));

  stages.push_back(run_stage("sanitize", [&](unsigned threads) {
    return observed_bytes(
        infer::ObservedPaths::build(scenario->paths(), nullptr, threads));
  }));

  stages.push_back(run_stage("asrank", [&](unsigned) {
    return rel_bytes(infer::run_asrank(observed).inference);
  }));

  stages.push_back(run_stage("problink", [&](unsigned threads) {
    infer::ProbLinkParams algo;
    algo.threads = threads;
    return rel_bytes(
        infer::run_problink(observed, asrank, scenario->validation(), algo)
            .inference);
  }));

  stages.push_back(run_stage("toposcope", [&](unsigned threads) {
    infer::TopoScopeParams algo;
    algo.threads = threads;
    return rel_bytes(
        infer::run_toposcope(observed, asrank, scenario->validation(), algo)
            .inference);
  }));

  stages.push_back(run_stage("bias_audit", [&](unsigned threads) {
    const core::BiasAudit audit{*scenario, threads};
    std::string out = eval::render_coverage(audit.regional_coverage());
    out += eval::render_coverage(audit.topological_coverage());
    out += eval::render_validation_table(
        audit.validation_table(asrank.inference));
    return out;
  }));

  bool all_identical = true;
  for (const auto& stage : stages) {
    for (const auto& run : stage.runs) all_identical &= run.identical;
  }

  // The acceptance metric's "combined" pipeline: ProbLink + TopoScope +
  // BiasAudit wall-clock, summed from the measured per-stage times.
  const auto combined_ms = [&](unsigned threads) {
    double total = 0.0;
    for (const auto& stage : stages) {
      if (stage.name != "problink" && stage.name != "toposcope" &&
          stage.name != "bias_audit") {
        continue;
      }
      if (threads == 1) {
        total += stage.serial_ms;
        continue;
      }
      for (const auto& run : stage.runs) {
        if (run.threads == threads) total += run.ms;
      }
    }
    return total;
  };
  const double combined_serial = combined_ms(1);
  std::printf("combined (problink+toposcope+bias_audit) serial %9.1f ms\n",
              combined_serial);
  for (const unsigned threads : kThreadCounts) {
    std::printf("combined x%-5u %9.1f ms  speedup %.2fx\n", threads,
                combined_ms(threads), combined_serial / combined_ms(threads));
  }

  serve::JsonWriter json;
  json.begin_object();
  json.field("bench", "pipeline_scaling");
  json.field("as_count", params.topology.as_count);
  json.field("seed", static_cast<std::uint64_t>(params.topology.seed));
  json.field("hardware_threads", static_cast<std::uint64_t>(hardware));
  // On a 1-hardware-thread runner every "parallel" run is time-sliced onto
  // the same core, so the speedup columns measure scheduler overhead, not
  // scaling. Flag it so downstream tooling does not chart these as
  // regressions.
  json.field("degenerate_single_thread", hardware <= 1);
  json.field("all_outputs_byte_identical", all_identical);
  json.key("stages").begin_array();
  for (const auto& stage : stages) {
    json.begin_object();
    json.field("stage", stage.name);
    json.field("serial_ms", stage.serial_ms);
    json.key("runs").begin_array();
    for (const auto& run : stage.runs) {
      json.begin_object()
          .field("threads", static_cast<std::uint64_t>(run.threads))
          .field("ms", run.ms)
          .field("speedup", stage.serial_ms / run.ms)
          .field("identical", run.identical)
          .end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("combined").begin_object();
  json.field("serial_ms", combined_serial);
  json.key("runs").begin_array();
  for (const unsigned threads : kThreadCounts) {
    json.begin_object()
        .field("threads", static_cast<std::uint64_t>(threads))
        .field("ms", combined_ms(threads))
        .field("speedup", combined_serial / combined_ms(threads))
        .end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();

  const char* out_path = "BENCH_pipeline.json";
  std::ofstream out{out_path, std::ios::binary};
  out << json.str() << '\n';
  if (!out) {
    std::printf("FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return all_identical ? 0 : 1;
}
