// serve_static: the epoll HttpServer over an mmap'd flat v3 snapshot of
// the 4000-AS world, no writes. Phase A is a closed loop without
// pipelining; phase B keeps 64 requests in flight per connection. /rel
// pairs are Zipf-skewed so the rel-body and report caches see repeats.
//
// Check: sampled wire responses are byte-equal to AsrelService::handle
// run in process on the same engine.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "bench.hpp"
#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/request_assembler.hpp"
#include "serve/response_writer.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kWorldAses = 4000;
constexpr int kServeLoops = 4;
constexpr int kClosedClients = 4;
constexpr int kPipelineClients = 4;
constexpr int kPipelineDepth = 64;
constexpr int kSetupRepeats = 5;
constexpr int kSampleEvery = 257;

struct Static {
  std::shared_ptr<serve::EngineHub> hub;
  std::unique_ptr<serve::AsrelService> service;
  std::unique_ptr<serve::HttpServer> server;
};

struct Phases {
  PhaseStats closed;
  PhaseStats pipelined;
};

/// Phase A then phase B, `seconds` together. Phase A, whose latency is
/// the end-to-end metric, gets three quarters: more slices steady its low
/// slice (phase B's rate is only printed in the accounting line).
Phases run_phases(std::uint16_t port, const std::vector<ReadRequest>& pool,
                  double seconds) {
  Phases phases;
  phases.closed = run_closed_loop(port, pool, kClosedClients, 1,
                                  seconds * 0.75, kSampleEvery);
  phases.pipelined = run_closed_loop(port, pool, kPipelineClients,
                                     kPipelineDepth, seconds * 0.25,
                                     kSampleEvery);
  return phases;
}

/// µs per RequestAssembler::next over the pool's bytes, fed one pipelined
/// train at a time as the epoll loop does.
double parse_us(const std::vector<ReadRequest>& pool) {
  constexpr std::size_t kRequests = 1 << 14;
  std::vector<std::string> trains;
  for (std::size_t i = 0; i < kRequests; i += kPipelineDepth) {
    std::string train;
    for (std::size_t k = i; k < i + kPipelineDepth; ++k) {
      train += pool[k % pool.size()].bytes;
    }
    trains.push_back(std::move(train));
  }
  std::vector<double> per_request;
  for (int round = 0; round < 5; ++round) {
    serve::RequestAssembler assembler{16 * 1024};
    serve::HttpRequest request;
    std::size_t parsed = 0;
    const Clock::time_point start = Clock::now();
    for (const auto& train : trains) {
      assembler.feed(train.data(), train.size());
      while (assembler.next(&request) == serve::AssemblerStatus::kRequest) {
        ++parsed;
      }
    }
    per_request.push_back(ms_between(start, Clock::now()) * 1000.0 /
                          static_cast<double>(std::max<std::size_t>(parsed, 1)));
  }
  return median(per_request);
}

/// µs per render_http_response over in-process answers to the pool.
double render_us(const serve::AsrelService& service,
                 const std::vector<ReadRequest>& pool) {
  std::vector<serve::HttpResponse> responses;
  for (std::size_t i = 0; i < 4096; ++i) {
    serve::RequestAssembler assembler{16 * 1024};
    const std::string& bytes = pool[i % pool.size()].bytes;
    assembler.feed(bytes.data(), bytes.size());
    serve::HttpRequest request;
    if (assembler.next(&request) == serve::AssemblerStatus::kRequest) {
      responses.push_back(service.handle(request));
    }
  }
  std::vector<double> per_response;
  std::size_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point start = Clock::now();
    for (const auto& response : responses) {
      sink += serve::render_http_response(response, true).size();
    }
    per_response.push_back(
        ms_between(start, Clock::now()) * 1000.0 /
        static_cast<double>(std::max<std::size_t>(responses.size(), 1)));
  }
  return sink > 0 ? median(per_response) : 0.0;
}

core::ScenarioParams world_params(const Options& options) {
  core::ScenarioParams params;
  params.topology.as_count = kWorldAses;
  params.topology.seed = options.world_seed;
  return params;
}

/// Builds the world's flat snapshot in a child process, so the serving
/// process's peak RSS holds only what serving needs. Called before this
/// process starts any thread.
bool build_input(const Options& options, const std::string& path) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const auto scenario = core::Scenario::build(world_params(options));
    std::string error;
    const bool ok = io::save_flat_snapshot_file(
        core::build_snapshot(*scenario), path, &error);
    if (!ok) std::fprintf(stderr, "input snapshot: %s\n", error.c_str());
    std::_Exit(ok ? EXIT_SUCCESS : EXIT_FAILURE);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == EXIT_SUCCESS;
}

}  // namespace

Result run_serve_static(const Options& options) {
  Result result;
  SpanLog& spans = SpanLog::instance();
  const std::string path = options.workdir + "/static.v3";

  // Input: the world's flat snapshot, built but not timed — a deployment
  // receives this file from the batch builder. A traced run builds it in
  // process instead, timing each pipeline stage on the way (its peak RSS
  // is not reported).
  if (options.trace) {
    const auto scenario = core::Scenario::build(world_params(options));
    if (!add_pipeline_metrics(result, *scenario, path)) return result;
  } else if (!build_input(options, path)) {
    result.miss("cannot build the input snapshot");
    return result;
  }

  // Set-up, repeated: mmap + deep verify, engine, hub, server start.
  if (options.trace) spans.set_enabled(true);
  Static live;
  std::shared_ptr<const io::FlatView> view;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (live.server) live.server->stop();
    live = Static{};
    const Clock::time_point start = Clock::now();
    std::string error;
    view = traced("io.flat_open", "static.setup",
                  [&] { return io::FlatView::open_file(path, &error, true); });
    if (view == nullptr) {
      result.miss("flat open: " + error);
      return result;
    }
    live.hub = std::make_shared<serve::EngineHub>(
        std::make_shared<const serve::QueryEngine>(view));
    live.service = std::make_unique<serve::AsrelService>(live.hub);
    live.server = std::make_unique<serve::HttpServer>(
        timed_handler(*live.service),
        server_options(*live.service, kServeLoops));
    if (!live.server->start(&error)) {
      result.miss("server start: " + error);
      return result;
    }
    setup_s.push_back(seconds_since(start));
  }
  spans.set_enabled(false);

  // Inputs from the seed: a Zipf-skewed mix over every visible link.
  std::vector<val::AsLink> links;
  for (std::uint32_t i = 0; i < view->header().n_links; ++i) {
    const auto& tag = view->links()[i];
    links.push_back(val::AsLink{asn::Asn{tag.a}, asn::Asn{tag.b}});
  }
  std::vector<std::uint32_t> asns;
  for (std::uint32_t i = 0; i < view->header().n_ases; ++i) {
    asns.push_back(view->ases()[i].asn);
  }
  const auto pool = make_read_mix(1 << 16, options.seed, links, asns, true);
  const std::uint16_t port = live.server->port();

  // Warm-up: fill the caches and compute each report once.
  const PhaseStats warmup = run_closed_loop(port, pool, kClosedClients, 1,
                                            1, 0);

  Phases untraced;
  Phases traced_half;
  if (options.trace) {
    untraced = run_phases(port, pool, options.seconds / 2);
    spans.set_enabled(true);
    traced_half = run_phases(port, pool, options.seconds / 2);
  } else {
    untraced = run_phases(port, pool, options.seconds);
  }
  const Phases& measured = options.trace ? traced_half : untraced;
  // The 10th percentile of the slice p50s, not their median or mean. On a
  // 4-vCPU VM a slice's p50 sits near a floor or up to three times above
  // it, by how the host wakes idle vCPUs at that moment; the share of slow
  // slices moved the median of the slices by 1.6x between runs, while the
  // low slices held within a few percent.
  const auto low_slice = [](std::vector<double> slice_p50) {
    std::sort(slice_p50.begin(), slice_p50.end());
    return percentile_sorted(slice_p50, 0.10);
  };
  const double p50_us = low_slice(measured.closed.slice_p50_us);
  const double untraced_p50_us = low_slice(untraced.closed.slice_p50_us);
  const double rps = mean(measured.closed.slice_rps);
  const double pipelined_rps = mean(measured.pipelined.slice_rps);

  PhaseStats all;
  for (Phases* phases : {&untraced, &traced_half}) {
    all.merge(std::move(phases->closed));
    all.merge(std::move(phases->pipelined));
  }
  const std::size_t mismatches = check_samples(*live.service, all.samples);
  if (mismatches > 0) {
    result.miss(std::to_string(mismatches) + " of " +
                std::to_string(all.samples.size()) +
                " sampled responses differ from in-process handle()");
  }
  if (all.failed + warmup.failed > 0) {
    result.miss(std::to_string(all.failed + warmup.failed) +
                " requests failed");
  }
  if (!all.balanced() || !warmup.balanced()) {
    result.miss("requests sent != succeeded + failed");
  }
  result.attempted = all.sent;
  result.failed = all.failed + mismatches;

  result.detail.push_back(
      measured.closed.accounting_json("closed_loop", result));
  result.detail.push_back(
      measured.pipelined.accounting_json("pipelined", result));
  result.detail.push_back(
      "\"clients\":{\"closed\":" + std::to_string(kClosedClients) +
      ",\"pipelined\":" + std::to_string(kPipelineClients) +
      ",\"depth\":" + std::to_string(kPipelineDepth) +
      ",\"server_loops\":" + std::to_string(kServeLoops) + "}");
  result.detail.push_back("\"samples_checked\":" +
                          std::to_string(all.samples.size()));
  // serve_p50_us is latency_p50_ms in µs. The rates are measured and
  // printed, but not end-to-end metrics: on a shared VM whole-run rates
  // moved by up to 1.8x between seeds (README).
  result.detail.push_back("\"serve_p50_us\":" + json_number(p50_us) +
                          ",\"serve_rps\":" + json_number(rps) +
                          ",\"pipelined_rps\":" +
                          json_number(pipelined_rps));

  if (!options.trace) {
    result.add("setup_s", median(setup_s), "s");
    // Phase A request latency (see low_slice above).
    result.add("latency_p50_ms", p50_us / 1000.0, "ms");
    result.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return result;
  }

  // ---- per-layer (traced) ----
  const double handle_p50_us = add_handle_metrics(result);
  result.add("serve.wire_us", p50_us - handle_p50_us, "us");
  result.add("serve.parse_us", parse_us(pool), "us");
  result.add("serve.render_us", render_us(*live.service, pool), "us");
  const auto engine = live.hub->current();
  result.add("serve.engine_rel_ns", engine_rel_ns(*engine, pool), "ns");
  result.add("serve.rel_cache_hit_ratio", engine->rel_cache_stats().hit_rate(),
             "ratio");
  result.add("serve.report_cache_hit_ratio", engine->cache_stats().hit_rate(),
             "ratio");
  result.add("serve.bytes_per_response",
             measured.closed.succeeded == 0
                 ? 0.0
                 : static_cast<double>(measured.closed.response_bytes) /
                       static_cast<double>(measured.closed.succeeded),
             "bytes");
  std::vector<double> open_us = spans.durations_ms("io.flat_open");
  for (double& v : open_us) v *= 1000.0;
  result.add("io.flat_open_us", median(open_us), "us");
  result.add("trace.overhead_pct",
             untraced_p50_us > 0
                 ? (p50_us - untraced_p50_us) / untraced_p50_us * 100.0
                 : 0.0,
             "%");
  return result;
}

}  // namespace perfbench
