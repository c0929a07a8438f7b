// Load generation and serve-side measurement shared by the two workloads
// that put HTTP traffic on the epoll HttpServer: the read mix, the
// handler wrapper that times AsrelService::handle, the open- and
// closed-loop client drivers, and the in-process response oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/http_server.hpp"
#include "serve/service.hpp"
#include "validation/label.hpp"

namespace perfbench {

namespace serve = asrel::serve;
namespace val = asrel::val;

enum class Route : std::uint8_t { kRel = 0, kAs, kReport };

struct ReadRequest {
  std::string target;  ///< e.g. /rel?a=1&b=2
  std::string bytes;   ///< the GET as sent on the wire
  Route route = Route::kRel;
  std::uint32_t a = 0;  ///< /rel pair (a, b); /as asn in a
  std::uint32_t b = 0;
};

/// The read mix: 90% /rel, 8% /as, 2% /report/*. /rel pairs are drawn
/// from `links` uniformly, or Zipf(1.0)-skewed over a seeded permutation
/// when `zipf` is set; /as draws uniformly from `asns`.
[[nodiscard]] std::vector<ReadRequest> make_read_mix(
    std::size_t count, std::uint64_t seed,
    const std::vector<val::AsLink>& links,
    const std::vector<std::uint32_t>& asns, bool zipf);

/// Server options as the daemon sets them (per-route histograms, epoch
/// supplier), with `loops` epoll loops.
[[nodiscard]] serve::HttpServerOptions server_options(
    const serve::AsrelService& service, int loops);

/// The handler given to HttpServer: AsrelService::handle, under a
/// serve.handle.<route> span when tracing.
[[nodiscard]] serve::HttpServer::Handler timed_handler(
    const serve::AsrelService& service);

/// One client phase's accounting. Latency is summarized per slice (p50 and
/// p99 of the requests due, or sent, in the slice), so a slice hit by a
/// stall moves one slice's figure, not the whole run's percentile.
struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t backlog_max = 0;  ///< open loop only
  std::vector<double> late_ms;    ///< open loop: send time - due time
  std::vector<double> slice_rps;  ///< completed requests per second
  std::vector<double> slice_p50_us;
  std::vector<double> slice_p90_us;
  std::vector<double> slice_p99_us;
  std::size_t slice_min_samples = 0;  ///< fewest latencies in one slice
  /// Sampled (request, wire response) pairs for the byte-equality check.
  std::vector<std::pair<std::string, std::string>> samples;

  /// Every request sent was answered or counted as failed.
  [[nodiscard]] bool balanced() const { return sent == succeeded + failed; }
  /// Adds one slice's latencies (consumed) and completed-request rate.
  void add_slice(std::vector<double>& latency_us, double rps);
  void merge(PhaseStats&& other);
  /// JSON member "<name>":{sent,succeeded,failed,...} for the detail line;
  /// flags the slice p99 in `result` when a slice has < 10 samples beyond.
  [[nodiscard]] std::string accounting_json(const std::string& name,
                                            Result& result) const;
};

/// Open loop: `connections` threads send `pool` round-robin at `rate`
/// req/s in total from `start` until `end`, each request timed from its
/// due time. Responses must be 200 with intact framing.
[[nodiscard]] PhaseStats run_open_loop(std::uint16_t port,
                                       const std::vector<ReadRequest>& pool,
                                       int connections, double rate,
                                       Clock::time_point start,
                                       Clock::time_point end);

/// Closed loop for `seconds`, in quarter-second slices: each connection sends
/// its next request when the previous answer is in (`depth` == 1), or
/// keeps `depth` requests pipelined per train. Every slice opens fresh
/// connections, so each slice draws its own connection-to-event-loop
/// placement. Every `sample_every`-th request (up to a cap) goes out with
/// a fixed X-Request-Id and its wire bytes are kept for the oracle.
[[nodiscard]] PhaseStats run_closed_loop(std::uint16_t port,
                                         const std::vector<ReadRequest>& pool,
                                         int connections, int depth,
                                         double seconds, int sample_every);

/// Byte-compares each sampled wire response against AsrelService::handle
/// run in process on the same engine. Returns the number of mismatches.
[[nodiscard]] std::size_t check_samples(
    const serve::AsrelService& service,
    const std::vector<std::pair<std::string, std::string>>& samples);

/// Per-route p50 of the serve.handle.<route> spans, in µs, as
/// serve.handle_{rel,as,report}_us; returns the p50 over all routes.
double add_handle_metrics(Result& result);

/// ns per direct QueryEngine::rel call over the pool's /rel pairs.
[[nodiscard]] double engine_rel_ns(const serve::QueryEngine& engine,
                                   const std::vector<ReadRequest>& pool);

}  // namespace perfbench
