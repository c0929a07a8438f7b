// Serving-layer benchmark: snapshot build/save/load times, QueryEngine
// point-lookup throughput (single- and multi-threaded, no sockets), the
// report cache's effect on aggregate queries, and end-to-end HTTP QPS
// against an in-process HttpServer over loopback.
//
// ASREL_AS_COUNT / ASREL_SEED override the world size (default here is a
// smaller 4000-AS world so the bench stays interactive on one core).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <algorithm>
#include <mutex>
#include <vector>

#include "obs/log.hpp"
#include "obs/trace.hpp"

#include "bench_common.hpp"
#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/http_server.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace {

using namespace asrel;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Minimal blocking GET over a fresh-per-call keep-alive connection.
struct MiniClient {
  int fd = -1;

  bool open(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  ~MiniClient() {
    if (fd >= 0) ::close(fd);
  }

  int get(const std::string& path, bool close = false) {
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: bench\r\n" +
        (close ? "Connection: close\r\n\r\n" : "\r\n");
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      return -1;
    }
    std::string data;
    char chunk[8192];
    std::size_t header_end = std::string::npos;
    std::size_t content_length = 0;
    for (;;) {
      if (header_end == std::string::npos) {
        header_end = data.find("\r\n\r\n");
        if (header_end != std::string::npos) {
          const std::size_t cl = data.find("Content-Length: ");
          if (cl != std::string::npos && cl < header_end) {
            content_length = static_cast<std::size_t>(
                std::strtoull(data.c_str() + cl + 16, nullptr, 10));
          }
        }
      }
      if (header_end != std::string::npos &&
          data.size() >= header_end + 4 + content_length) {
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return -1;
      data.append(chunk, static_cast<std::size_t>(n));
    }
    return std::atoi(data.c_str() + data.find(' ') + 1);
  }

  /// Sends one GET carrying a caller-fixed X-Request-Id and captures the
  /// full wire response (status line, headers, body). Pinning the client
  /// id pins the echo header too, so two captures of the same request
  /// compare byte-for-byte even though server-minted ids differ per
  /// request.
  bool get_wire(const std::string& path, const std::string& request_id,
                std::string* wire) {
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: bench\r\nX-Request-Id: " +
        request_id + "\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      return false;
    }
    std::string data;
    char chunk[8192];
    std::size_t header_end = std::string::npos;
    std::size_t content_length = 0;
    for (;;) {
      if (header_end == std::string::npos) {
        header_end = data.find("\r\n\r\n");
        if (header_end != std::string::npos) {
          const std::size_t cl = data.find("Content-Length: ");
          if (cl != std::string::npos && cl < header_end) {
            content_length = static_cast<std::size_t>(
                std::strtoull(data.c_str() + cl + 16, nullptr, 10));
          }
        }
      }
      if (header_end != std::string::npos &&
          data.size() >= header_end + 4 + content_length) {
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      data.append(chunk, static_cast<std::size_t>(n));
    }
    *wire = data.substr(0, header_end + 4 + content_length);
    return true;
  }

  /// Sends a pipelined request blob and parses the full response train.
  /// Returns {number of 200s, total train bytes}, or {-1, 0} on failure.
  /// The byte count feeds burst_bytes: the server is deterministic, so
  /// the same blob always yields the same train length.
  std::pair<int, std::size_t> burst_parse(const std::string& blob,
                                          int expected) {
    if (::send(fd, blob.data(), blob.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(blob.size())) {
      return {-1, 0};
    }
    std::string data;
    char chunk[65536];
    std::size_t off = 0;
    int ok = 0;
    for (int r = 0; r < expected; ++r) {
      std::size_t header_end;
      while ((header_end = data.find("\r\n\r\n", off)) == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return {-1, 0};
        data.append(chunk, static_cast<std::size_t>(n));
      }
      std::size_t content_length = 0;
      const std::size_t cl = data.find("Content-Length: ", off);
      if (cl != std::string::npos && cl < header_end) {
        content_length = static_cast<std::size_t>(
            std::strtoull(data.c_str() + cl + 16, nullptr, 10));
      }
      const std::size_t frame_end = header_end + 4 + content_length;
      while (data.size() < frame_end) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return {-1, 0};
        data.append(chunk, static_cast<std::size_t>(n));
      }
      if (std::atoi(data.c_str() + data.find(' ', off) + 1) == 200) ++ok;
      off = frame_end;
    }
    return {ok, off};
  }

  /// Sends the blob and drains exactly `bytes` of response train — the
  /// framing burst_parse learned. The cheapest possible client loop, so
  /// the measured ceiling is the server's, not the client's.
  bool burst_bytes(const std::string& blob, std::size_t bytes) {
    if (::send(fd, blob.data(), blob.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(blob.size())) {
      return false;
    }
    char chunk[65536];
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return got == bytes;
  }
};

/// Nearest-rank percentile: 1-based rank = ceil(p * n). The same rank rule
/// obs::histogram_quantile uses; the old `sorted[p * (n - 1)]` form
/// under-reported high quantiles for small n (p99 of 10 samples picked
/// index 8, not the maximum).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

int main() {
  // Smaller default than the shared bench scenario: the serving layer is
  // measured at interactive scale; override with ASREL_AS_COUNT.
  core::ScenarioParams params;
  params.topology.as_count = bench::env_int("ASREL_AS_COUNT", 4000);
  params.topology.seed =
      static_cast<std::uint64_t>(bench::env_int("ASREL_SEED", 42));

  std::printf("== serve_throughput (%d ASes, seed %llu) ==\n",
              params.topology.as_count,
              static_cast<unsigned long long>(params.topology.seed));

  serve::JsonWriter json;
  json.begin_object();
  json.field("bench", "serve_throughput");
  json.field("as_count", params.topology.as_count);
  json.field("seed", static_cast<std::uint64_t>(params.topology.seed));

  auto t0 = Clock::now();
  const auto scenario = core::Scenario::build(params);
  const double build_ms = ms_since(t0);
  std::printf("scenario build:        %8.1f ms\n", build_ms);
  json.field("scenario_build_ms", build_ms);

  t0 = Clock::now();
  io::Snapshot snapshot = core::build_snapshot(*scenario);
  const double assembly_ms = ms_since(t0);
  std::printf("snapshot assembly:     %8.1f ms  (3 inferences + tags)\n",
              assembly_ms);
  json.field("snapshot_assembly_ms", assembly_ms);

  t0 = Clock::now();
  const std::string bytes = io::to_snapshot_bytes(snapshot);
  const double encode_ms = ms_since(t0);
  std::printf("snapshot encode:       %8.1f ms  (%.1f MiB flat v3)\n",
              encode_ms,
              static_cast<double>(bytes.size()) / (1024.0 * 1024.0));
  json.field("snapshot_encode_ms", encode_ms);
  json.field("snapshot_bytes", static_cast<std::uint64_t>(bytes.size()));

  t0 = Clock::now();
  std::string open_error;
  if (io::FlatView::from_bytes(bytes, &open_error) == nullptr) {
    std::printf("FATAL: encoded snapshot does not open: %s\n",
                open_error.c_str());
    return 1;
  }
  const double open_ms = ms_since(t0);
  std::printf("snapshot open:         %8.1f ms  (copy + deep verify)\n",
              open_ms);
  json.field("snapshot_open_ms", open_ms);

  t0 = Clock::now();
  const auto engine = std::make_shared<const serve::QueryEngine>(snapshot);
  const double engine_build_ms = ms_since(t0);
  std::printf("engine build:          %8.1f ms (flat encode + open)\n",
              engine_build_ms);
  json.field("engine_build_ms", engine_build_ms);

  // ---- in-process point-lookup throughput ----
  const auto sample = engine->sample_links(4096);
  json.key("rel_lookup").begin_array();
  for (const int threads : {1, 4}) {
    constexpr long kLookups = 200000;
    std::atomic<long> sink{0};
    t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        long found = 0;
        for (long i = 0; i < kLookups / threads; ++i) {
          const auto& link =
              sample[static_cast<std::size_t>(i + w * 31) % sample.size()];
          found += engine->rel(link.a, link.b).known() ? 1 : 0;
        }
        sink.fetch_add(found);
      });
    }
    for (auto& worker : pool) worker.join();
    const double seconds = ms_since(t0) / 1000.0;
    const double rate = static_cast<double>(kLookups) / seconds;
    std::printf("engine rel() x%d:       %8.0f lookups/s (%ld found)\n",
                threads, rate, sink.load());
    json.begin_object()
        .field("threads", threads)
        .field("lookups_per_s", rate)
        .end_object();
  }
  json.end_array();

  // ---- aggregate reports: cold vs cached ----
  t0 = Clock::now();
  (void)engine->report_json("regional");
  (void)engine->report_json("topological");
  (void)engine->report_json("table:asrank");
  const double cold_ms = ms_since(t0);
  t0 = Clock::now();
  constexpr int kCachedRounds = 1000;
  for (int i = 0; i < kCachedRounds; ++i) {
    (void)engine->report_json("regional");
    (void)engine->report_json("table:asrank");
  }
  const double cached_ms = ms_since(t0) / (2.0 * kCachedRounds);
  std::printf("reports cold:          %8.1f ms (3 reports)\n", cold_ms);
  std::printf("reports cached:        %8.3f ms/report (hit rate %.2f)\n",
              cached_ms, engine->cache_stats().hit_rate());
  json.field("reports_cold_ms", cold_ms);
  json.field("reports_cached_ms_per_report", cached_ms);
  json.field("report_cache_hit_rate", engine->cache_stats().hit_rate());

  // ---- hot reload: deep open of in-memory bytes + RCU publish ----
  const auto hub = std::make_shared<serve::EngineHub>(
      engine, [&bytes](std::string* reload_error)
                  -> std::shared_ptr<const serve::QueryEngine> {
        auto next = io::FlatView::from_bytes(bytes, reload_error);
        if (next == nullptr) return nullptr;
        return std::make_shared<const serve::QueryEngine>(std::move(next));
      });
  t0 = Clock::now();
  constexpr int kReloads = 3;
  for (int i = 0; i < kReloads; ++i) {
    if (!hub->reload().ok) {
      std::printf("FATAL: reload failed\n");
      return 1;
    }
  }
  const double reload_ms = ms_since(t0) / kReloads;
  std::printf("hot reload:            %8.1f ms/swap (epoch %llu)\n",
              reload_ms, static_cast<unsigned long long>(hub->epoch()));
  json.field("hot_reload_ms", reload_ms);

  // ---- snapshot v3 (flat): serialize, mmap open, lookups, µs reload ----
  // The reload path opens with deep_verify=false (structural checks only;
  // the atomic-rename producer guarantees a complete file), which is what
  // turns a reload from a full parse + encode into an mmap.
  const std::string flat_path = "/tmp/asrel_serve_bench.v3";
  std::string flat_error;
  t0 = Clock::now();
  if (!io::save_flat_snapshot_file(snapshot, flat_path, &flat_error)) {
    std::printf("FATAL: flat save failed: %s\n", flat_error.c_str());
    return 1;
  }
  const double flat_save_ms = ms_since(t0);
  constexpr int kFlatOpens = 50;
  t0 = Clock::now();
  for (int i = 0; i < kFlatOpens; ++i) {
    if (io::FlatView::open_file(flat_path, &flat_error, false) == nullptr) {
      std::printf("FATAL: flat open failed: %s\n", flat_error.c_str());
      return 1;
    }
  }
  const double flat_open_us = ms_since(t0) * 1000.0 / kFlatOpens;
  const auto flat_view = io::FlatView::open_file(flat_path, &flat_error);
  if (flat_view == nullptr) {
    std::printf("FATAL: flat deep open failed: %s\n", flat_error.c_str());
    return 1;
  }
  const auto flat_engine =
      std::make_shared<const serve::QueryEngine>(flat_view);
  {
    constexpr long kLookups = 200000;
    long found = 0;
    t0 = Clock::now();
    for (long i = 0; i < kLookups; ++i) {
      const auto& link = sample[static_cast<std::size_t>(i) % sample.size()];
      found += flat_engine->rel(link.a, link.b).known() ? 1 : 0;
    }
    const double flat_rate =
        static_cast<double>(kLookups) / (ms_since(t0) / 1000.0);
    serve::EngineHub flat_hub{
        flat_engine,
        [&flat_path](std::string* reload_error)
            -> std::shared_ptr<const serve::QueryEngine> {
          auto view = io::FlatView::open_file(flat_path, reload_error, false);
          if (view == nullptr) return nullptr;
          return std::make_shared<const serve::QueryEngine>(std::move(view));
        }};
    constexpr int kFlatReloads = 50;
    t0 = Clock::now();
    for (int i = 0; i < kFlatReloads; ++i) {
      if (!flat_hub.reload().ok) {
        std::printf("FATAL: flat reload failed\n");
        return 1;
      }
    }
    const double flat_reload_us = ms_since(t0) * 1000.0 / kFlatReloads;
    std::printf("flat (v3) save:        %8.1f ms\n", flat_save_ms);
    std::printf("flat (v3) mmap open:   %8.1f us/open (structural)\n",
                flat_open_us);
    std::printf("flat (v3) rel() x1:    %8.0f lookups/s (%ld found)\n",
                flat_rate, found);
    std::printf("flat (v3) hot reload:  %8.1f us/swap (structural mmap)\n",
                flat_reload_us);
    json.key("flat_snapshot").begin_object();
    json.field("save_ms", flat_save_ms);
    json.field("open_us", flat_open_us);
    json.field("rel_lookups_per_s", flat_rate);
    json.field("reload_us", flat_reload_us);
    json.end_object();
  }

  // ---- end-to-end HTTP over loopback ----
  serve::AsrelService service{hub};
  const auto handler = [&service](const serve::HttpRequest& request) {
    return service.handle(request);
  };

  /// One keep-alive /rel hammer round; returns {req/s, errors}.
  const auto run_http_rel = [&](std::uint16_t port, int clients,
                                long requests) {
    std::atomic<long> errors{0};
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        MiniClient client;
        if (!client.open(port)) {
          errors.fetch_add(requests / clients);
          return;
        }
        for (long i = 0; i < requests / clients; ++i) {
          const auto& link =
              sample[static_cast<std::size_t>(i + c * 17) % sample.size()];
          const std::string path = "/rel?a=" +
                                   std::to_string(link.a.value()) +
                                   "&b=" + std::to_string(link.b.value());
          if (client.get(path) != 200) errors.fetch_add(1);
        }
      });
    }
    for (auto& worker : pool) worker.join();
    const double seconds = ms_since(start) / 1000.0;
    return std::pair<double, long>{static_cast<double>(requests) / seconds,
                                   errors.load()};
  };

  /// Pipelined keep-alive hammer: each client prebuilds one blob of
  /// `depth` /rel requests, learns the response-train byte length with a
  /// parsing warm-up burst, then times `rounds` send+drain cycles.
  const auto run_http_pipelined = [&](std::uint16_t port, int clients,
                                      int depth, int rounds) {
    std::atomic<long> errors{0};
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        MiniClient client;
        if (!client.open(port)) {
          errors.fetch_add(static_cast<long>(depth) * (rounds + 1));
          return;
        }
        std::string blob;
        for (int i = 0; i < depth; ++i) {
          const auto& link =
              sample[static_cast<std::size_t>(i + c * 17) % sample.size()];
          blob += "GET /rel?a=" + std::to_string(link.a.value()) +
                  "&b=" + std::to_string(link.b.value()) +
                  " HTTP/1.1\r\nHost: bench\r\n\r\n";
        }
        const auto [ok, train_bytes] = client.burst_parse(blob, depth);
        if (ok != depth) {
          errors.fetch_add(static_cast<long>(depth) * (rounds + 1));
          return;
        }
        for (int r = 0; r < rounds; ++r) {
          if (!client.burst_bytes(blob, train_bytes)) {
            errors.fetch_add(static_cast<long>(depth) * (rounds - r));
            return;
          }
        }
      });
    }
    for (auto& worker : pool) worker.join();
    const double seconds = ms_since(start) / 1000.0;
    const long requests = static_cast<long>(clients) * depth * (rounds + 1);
    return std::pair<double, long>{static_cast<double>(requests) / seconds,
                                   errors.load()};
  };

  std::string error;
  json.key("http_rel").begin_array();
  double epoll_pipelined_rps = 0.0;
  {
    serve::HttpServerOptions options;
    options.port = 0;
    options.worker_threads = 4;
    serve::HttpServer server{handler, options};
    if (!server.start(&error)) {
      std::printf("FATAL: %s\n", error.c_str());
      return 1;
    }
    for (const int clients : {1, 4}) {
      constexpr long kRequests = 20000;
      const auto [rate, errors] =
          run_http_rel(server.port(), clients, kRequests);
      std::printf("http /rel epoll      x%d: %8.0f req/s (%ld errors)\n",
                  clients, rate, errors);
      json.begin_object()
          .field("frontend", "epoll")
          .field("clients", clients)
          .field("requests_per_s", rate)
          .field("errors", static_cast<std::int64_t>(errors))
          .end_object();
    }
    for (const int depth : {16, 64}) {
      const auto [rate, errors] =
          run_http_pipelined(server.port(), 2, depth, 2000);
      std::printf("http /rel epoll      x2 pipeline %-4d: %8.0f req/s "
                  "(%ld errors)\n",
                  depth, rate, errors);
      if (depth == 64) epoll_pipelined_rps = rate;
      json.begin_object()
          .field("frontend", "epoll")
          .field("clients", 2)
          .field("pipeline", depth)
          .field("requests_per_s", rate)
          .field("errors", static_cast<std::int64_t>(errors))
          .end_object();
    }
    server.stop();
  }
  // The tentpole configuration: epoll front end serving straight from the
  // mmap'd flat snapshot. This is the number the ISSUE's ≥10× target is
  // measured against.
  {
    const auto flat_hub = std::make_shared<serve::EngineHub>(flat_engine);
    serve::AsrelService flat_service{flat_hub};
    serve::HttpServerOptions options;
    options.port = 0;
    options.worker_threads = 4;
    serve::HttpServer server{
        [&flat_service](const serve::HttpRequest& request) {
          return flat_service.handle(request);
        },
        options};
    if (!server.start(&error)) {
      std::printf("FATAL: %s\n", error.c_str());
      return 1;
    }
    for (const int depth : {64, 256}) {
      const auto [rate, errors] =
          run_http_pipelined(server.port(), 2, depth, 2000);
      std::printf("http /rel epoll+flat  x2 pipeline %-4d: %8.0f req/s "
                  "(%ld errors)\n",
                  depth, rate, errors);
      epoll_pipelined_rps = std::max(epoll_pipelined_rps, rate);
      json.begin_object()
          .field("frontend", "epoll+flat")
          .field("clients", 2)
          .field("pipeline", depth)
          .field("requests_per_s", rate)
          .field("errors", static_cast<std::int64_t>(errors))
          .end_object();
    }
    server.stop();
  }
  json.end_array();
  json.field("baseline_rps", 83000.0);
  json.field("epoll_pipelined_vs_baseline",
             epoll_pipelined_rps / 83000.0);
  std::printf("epoll pipelined vs 83k baseline: %.1fx\n",
              epoll_pipelined_rps / 83000.0);

  // ---- the default server for the tracing-overhead section ----
  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 4;
  serve::HttpServer server{handler, options};
  if (!server.start(&error)) {
    std::printf("FATAL: %s\n", error.c_str());
    return 1;
  }

  // ---- tracing overhead: the identical workload, tracer off then on ----
  // The ISSUE budget is < 2% throughput loss with tracing enabled; the CI
  // bench job records whatever this run measures so regressions show up in
  // BENCH_serve.json history. (Loopback QPS is noisy at the percent level,
  // so this is a recorded signal, not an assertion.)
  {
    constexpr long kRequests = 20000;
    constexpr int kRounds = 3;
    (void)run_http_rel(server.port(), 4, kRequests);  // warm-up: equalize cache state
    obs::Tracer::instance().clear();
    // Alternate off/on rounds and keep the best of each: loopback QPS
    // jitters far more run-to-run than tracing costs, and best-of-N
    // filters the scheduler noise that a single pair cannot.
    double tracing_off_rps = 0.0;
    double tracing_on_rps = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      tracing_off_rps =
          std::max(tracing_off_rps, run_http_rel(server.port(), 4, kRequests).first);
      obs::ScopedTracing tracing{true};
      tracing_on_rps =
          std::max(tracing_on_rps, run_http_rel(server.port(), 4, kRequests).first);
    }
    const double overhead_pct =
        tracing_off_rps > 0.0
            ? (tracing_off_rps - tracing_on_rps) / tracing_off_rps * 100.0
            : 0.0;
    std::printf(
        "tracing overhead:      %8.0f req/s off, %.0f req/s on (%+.2f%%)\n",
        tracing_off_rps, tracing_on_rps, overhead_pct);
    json.field("tracing_off_rps", tracing_off_rps);
    json.field("tracing_on_rps", tracing_on_rps);
    json.field("tracing_overhead_pct", overhead_pct);
    std::string trace_error;
    if (obs::Tracer::instance().write_chrome_trace("trace.json",
                                                   &trace_error)) {
      std::printf("wrote trace.json\n");
    } else {
      std::printf("FATAL: cannot write trace.json: %s\n",
                  trace_error.c_str());
      return 1;
    }
    obs::Tracer::instance().set_enabled(false);
  }

  // ---- event-log overhead: the identical workload, log off then on ----
  // Same protocol as the tracing section. The observability budget (request
  // ids + slow rings + structured events) is < 2% throughput; recorded, not
  // asserted, because loopback QPS is noisy at the percent level.
  {
    constexpr long kRequests = 20000;
    constexpr int kRounds = 3;
    double logging_off_rps = 0.0;
    double logging_on_rps = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      {
        obs::ScopedLogging logging{false};
        logging_off_rps = std::max(
            logging_off_rps, run_http_rel(server.port(), 4, kRequests).first);
      }
      obs::ScopedLogging logging{true};
      logging_on_rps = std::max(
          logging_on_rps, run_http_rel(server.port(), 4, kRequests).first);
    }
    const double overhead_pct =
        logging_off_rps > 0.0
            ? (logging_off_rps - logging_on_rps) / logging_off_rps * 100.0
            : 0.0;
    std::printf(
        "logging overhead:      %8.0f req/s off, %.0f req/s on (%+.2f%%)\n",
        logging_off_rps, logging_on_rps, overhead_pct);
    json.field("logging_off_rps", logging_off_rps);
    json.field("logging_on_rps", logging_on_rps);
    json.field("logging_overhead_pct", overhead_pct);
  }

  // ---- byte identity with full observability on ----
  // The layer's central invariant, pinned at the serve path: the same
  // request (fixed client X-Request-Id, so the echo header is pinned too)
  // yields identical wire bytes whether tracing+logging are on or off.
  {
    const auto& link = sample.front();
    const std::string path = "/rel?a=" + std::to_string(link.a.value()) +
                             "&b=" + std::to_string(link.b.value());
    MiniClient probe;
    std::string wire_off;
    std::string wire_on;
    bool ok = probe.open(server.port());
    if (ok) {
      obs::ScopedTracing tracing{false};
      obs::ScopedLogging logging{false};
      ok = probe.get_wire(path, "00000000cafef00d", &wire_off);
    }
    if (ok) {
      obs::ScopedTracing tracing{true};
      obs::ScopedLogging logging{true};
      ok = probe.get_wire(path, "00000000cafef00d", &wire_on);
    }
    obs::Tracer::instance().set_enabled(false);
    if (!ok || wire_off.empty() || wire_off != wire_on) {
      std::printf("FATAL: response bytes differ with observability on\n");
      return 1;
    }
    std::printf("observability byte-identity: OK (%zu wire bytes)\n",
                wire_off.size());
    json.field("observability_byte_identical", true);
  }
  server.stop();

  // ---- overload shedding: tiny queue in front of one slow worker ----
  // One worker, near-empty pending queue, ~1 ms handler: most of the
  // 8-way burst must be shed with 503 while admitted work stays fast.
  {
    serve::HttpServerOptions small_options;
    small_options.port = 0;
    small_options.worker_threads = 1;
    small_options.max_pending_connections = 4;
    serve::HttpServer small{
        [](const serve::HttpRequest&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return serve::HttpResponse::json(200, "{\"ok\":true}");
        },
        small_options};
    if (!small.start(&error)) {
      std::printf("FATAL: %s\n", error.c_str());
      return 1;
    }
    constexpr int kBurstClients = 8;
    constexpr int kBurstRequests = 50;
    std::atomic<long> success{0};
    std::atomic<long> shed{0};
    std::mutex latency_mutex;
    std::vector<double> success_us;
    t0 = Clock::now();
    std::vector<std::thread> burst;
    for (int c = 0; c < kBurstClients; ++c) {
      burst.emplace_back([&] {
        std::vector<double> local_us;
        for (int i = 0; i < kBurstRequests; ++i) {
          MiniClient client;
          if (!client.open(small.port())) {
            shed.fetch_add(1);
            continue;
          }
          const auto sent = Clock::now();
          const int status = client.get("/x", /*close=*/true);
          if (status == 200) {
            success.fetch_add(1);
            local_us.push_back(ms_since(sent) * 1000.0);
          } else {
            // 503 from the shed path, or -1 when the RST from the
            // server-side close races ahead of the buffered response.
            shed.fetch_add(1);
          }
        }
        const std::lock_guard<std::mutex> lock{latency_mutex};
        success_us.insert(success_us.end(), local_us.begin(),
                          local_us.end());
      });
    }
    for (auto& worker : burst) worker.join();
    const double burst_seconds = ms_since(t0) / 1000.0;
    std::sort(success_us.begin(), success_us.end());
    const double p50 = percentile(success_us, 0.50);
    const double p99 = percentile(success_us, 0.99);
    const auto small_stats = small.stats();
    small.stop();
    std::printf(
        "overload burst:        %8ld ok, %ld shed in %.2fs "
        "(success p50 %.0f us, p99 %.0f us)\n",
        success.load(), shed.load(), burst_seconds, p50, p99);
    json.key("overload").begin_object();
    json.field("requests",
               static_cast<std::int64_t>(kBurstClients * kBurstRequests));
    json.field("success", static_cast<std::int64_t>(success.load()));
    json.field("shed", static_cast<std::int64_t>(shed.load()));
    json.field("server_rejected",
               static_cast<std::int64_t>(small_stats.overload_rejected));
    json.field("success_p50_us", p50);
    json.field("success_p99_us", p99);
    json.end_object();
  }

  json.end_object();
  const char* out_path = "BENCH_serve.json";
  std::ofstream out{out_path, std::ios::binary};
  out << json.str() << '\n';
  if (out) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("FATAL: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
