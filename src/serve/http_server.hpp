// HTTP/1.1 server over POSIX sockets.
//
// Concurrency model: N event loops over nonblocking sockets
// (serve/epoll_server.cpp), and no other thread. The one nonblocking
// listening socket sits in every loop's epoll set, level-triggered: every
// idle loop wakes on a connect, one wins the accept, and it admits and
// serves the connection inline. Admission control is a cap on open
// connections (max_connections): a connect beyond it is answered with an
// immediate 503 + Retry-After and closed. Connections a busy server has
// not accepted yet wait in the kernel backlog. A loop parses pipelined
// requests out of a per-connection carried-over buffer
// (serve/request_assembler), runs handlers inline, and flushes batched
// responses with writev — the syscall-amortized path that serves
// pipelined keep-alive bursts at memory speed. The bytes of every response
// are pinned by tests/golden/wire_transcript.http.
//
// Timeouts ride a per-loop timer wheel: a connection that stalls mid-
// request, mid-write or idle for request_timeout_ms is cut (408 when a
// request was in progress). A total per-request deadline, checked lazily
// whenever data arrives, bounds slow-trickle (slowloris-style) uploads
// that would otherwise reset the stall timer byte by byte.
//
// Robustness: accept retries EINTR/ECONNABORTED and survives fd
// exhaustion (EMFILE/ENFILE) via a reserved emergency fd — close it,
// accept the waiting connection, shed it, reopen the reserve — instead
// of spinning. Two loops can reach that path at once, so it is
// serialized. All socket syscalls route through the deterministic
// fault-injection layer (serve/fault_inject.*), which is zero-cost unless
// a chaos test arms it.
//
// Shutdown comes in two shapes: stop() aborts everything immediately;
// drain() stops accepting, answers whatever is still in the kernel
// backlog with the shed 503, lets in-flight connections finish within a
// deadline, force-closes stragglers, and reports drained/aborted counts.
//
// /healthz, /statsz, /metricsz (Prometheus text exposition), /tracez
// (recent spans as JSON), /logz (recent structured log events), and
// /slowz (K slowest requests per route) are answered by the server
// itself; every dispatched response echoes its request id as
// X-Request-Id, the key that joins those views; GET and POST
// are routed to the registered handler (which owns method policy for its
// routes — the bundled AsrelService 405s POST everywhere except
// /reloadz); other methods are 405. A request that cannot be parsed is
// answered 400 and the connection closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slow_ring.hpp"
#include "serve/http_parser.hpp"

namespace asrel::serve {

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (e.g. Retry-After), rendered verbatim.
  std::vector<std::pair<std::string, std::string>> headers;

  [[nodiscard]] static HttpResponse json(int status, std::string body) {
    HttpResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
  }
};

struct HttpServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t malformed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overload_rejected = 0;   ///< shed with 503 at admission
  std::uint64_t accept_retried = 0;      ///< EINTR/ECONNABORTED retries
  std::uint64_t emfile_recoveries = 0;   ///< fd-exhaustion emergency path
  std::uint64_t drained = 0;             ///< connections finished in drain
  std::uint64_t aborted = 0;             ///< connections force-closed
  std::uint64_t deadline_exceeded = 0;   ///< requests over the deadline
  std::uint64_t bytes_read = 0;          ///< request bytes received
  std::uint64_t bytes_written = 0;       ///< response bytes sent
};

/// Outcome of a graceful drain (subset of stats, for the caller's log).
struct DrainReport {
  std::uint64_t drained = 0;
  std::uint64_t aborted = 0;
};

struct HttpServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; see HttpServer::port()
  /// Number of event loops (threads) serving connections.
  int worker_threads = 4;
  /// Open-connection cap: a connect beyond it is shed with 503.
  std::size_t max_connections = 256;
  /// Stall/idle timeout on the loop's timer wheel: a connection with no
  /// read or write progress for this long is cut (408 mid-request).
  int request_timeout_ms = 5000;
  int request_deadline_ms = 10000; ///< total wall clock per request
  int drain_deadline_ms = 5000;    ///< grace period for drain()
  int retry_after_hint_s = 1;      ///< Retry-After on shed 503s
  /// Extra JSON object spliced into /statsz under "app" (e.g. cache hit
  /// rates). Must return a valid JSON object or an empty string.
  std::function<std::string()> stats_supplement;
  /// Routes (beyond the built-in /healthz /statsz /metricsz /tracez) that
  /// get their own request-latency histogram. Cardinality rule: this is a
  /// closed set fixed at construction — any other path is folded into the
  /// "other" series, so client-controlled paths can never mint metrics.
  std::vector<std::string> metrics_routes;
  /// Extra scrape-time metrics appended to /metricsz (e.g. cache stats of
  /// the current snapshot epoch).
  std::function<void(std::vector<obs::MetricSnapshot>&)> metrics_supplement;
  /// Supplier of the snapshot epoch currently being served, stamped into
  /// /slowz entries so an outlier can be tied to the epoch that answered
  /// it. Must be thread-safe; unset reads as epoch 0.
  std::function<std::uint64_t()> epoch_supplier;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loops. Returns false and
  /// fills `*error` on socket errors (port in use, ...).
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Hard stop: closes everything immediately, joins all threads.
  /// Idempotent; also called by the destructor.
  void stop();

  /// Graceful stop: stops accepting, sheds the kernel backlog with 503,
  /// serves in-flight connections to completion within
  /// options.drain_deadline_ms, then force-closes the rest. Idempotent
  /// with stop(); returns how many connections finished vs were aborted.
  DrainReport drain();

  /// The bound port (useful with port = 0). Valid after start().
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] HttpServerStats stats() const;

  /// Routes that blew their deadline, with counts; "(read)" covers
  /// requests that timed out before the route was known.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  deadline_exceeded_by_route() const;

  /// This server's own registry (request counters, per-route latency).
  /// /metricsz merges it with MetricsRegistry::global(); exposing it lets
  /// tests scrape without sockets.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Per-request facts only the transport knows, fed to observe_request
  /// alongside the timing: the resolved id, how many bytes the response
  /// put on the wire, and how many flush stalls (EAGAIN on write) the
  /// epoll path ate while getting them there.
  struct RequestObservation {
    std::uint64_t request_id = 0;
    std::uint64_t response_bytes = 0;
    std::uint32_t flush_stalls = 0;
  };

 private:
  // ---- event loops (serve/epoll_server.cpp) ----
  /// Per-loop state: epoll fd, wake eventfd, connections, timer wheel.
  /// Defined in epoll_server.cpp; held by shared_ptr so this header stays
  /// free of epoll details.
  struct EpollLoop;
  [[nodiscard]] bool epoll_start(std::string* error);
  void epoll_loop(EpollLoop& loop);
  /// Kicks every event loop's eventfd (stop, drain).
  void wake_loops();
  /// Drain's first step: takes the listener out of every loop's epoll
  /// set, answers the kernel backlog with the shed 503 (counted aborted),
  /// and shuts the listener down.
  void close_listener();
  /// Counts and logs an admission shed, then refuses the connection.
  void shed_connection(int fd);
  /// Sends the shed 503 + Retry-After and closes the connection.
  void refuse(int fd);
  void note_deadline_exceeded(const std::string& route,
                              std::uint64_t request_id = 0);
  void observe_request(const std::string& path, std::uint64_t duration_us,
                       std::uint64_t trace_start_us, bool tracing,
                       const RequestObservation& observation);
  [[nodiscard]] HttpResponse dispatch(const HttpRequest& request);
  [[nodiscard]] std::string statsz_body() const;
  [[nodiscard]] std::string metricsz_body() const;
  [[nodiscard]] std::string tracez_body(const HttpRequest& request) const;
  [[nodiscard]] std::string logz_body(const HttpRequest& request) const;
  [[nodiscard]] std::string slowz_body() const;
  void join_all();

  Handler handler_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  int reserve_fd_ = -1;  ///< emergency fd released to survive EMFILE
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  std::vector<std::thread> workers_;  ///< one thread per event loop
  std::vector<std::shared_ptr<EpollLoop>> loops_;

  /// Admission order. Each admitted connection takes the next value to
  /// seed its request-id stream, making ids a pure function of (server,
  /// accept order, request index).
  std::atomic<std::uint64_t> connection_sequence_{0};
  std::mutex reserve_mutex_;  ///< serializes the EMFILE path's reserve fd

  mutable std::mutex active_mutex_;
  std::unordered_set<int> active_fds_;
  std::unordered_set<int> aborted_fds_;  ///< force-closed during drain

  mutable std::mutex deadline_mutex_;
  std::unordered_map<std::string, std::uint64_t> deadline_by_route_;

  // Stats live in the per-server registry; these are handles bound once in
  // the constructor (writes are striped relaxed atomics, reads sum them).
  obs::MetricsRegistry metrics_;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_2xx_ = nullptr;
  obs::Counter* responses_4xx_ = nullptr;
  obs::Counter* responses_5xx_ = nullptr;
  obs::Counter* malformed_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* overload_rejected_ = nullptr;
  obs::Counter* accept_retried_ = nullptr;
  obs::Counter* emfile_recoveries_ = nullptr;
  obs::Counter* drained_ = nullptr;
  obs::Counter* aborted_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  /// Per-route instruments, bound once at construction so the request
  /// path does no string building (the span name is preassembled).
  struct RouteObs {
    obs::Histogram* latency = nullptr;
    std::string span_name;  ///< "http <route>"
    std::unique_ptr<obs::SlowRing> slow;  ///< K slowest for /slowz
  };
  std::unordered_map<std::string, RouteObs> route_latency_;
  RouteObs other_route_;  ///< fold-in series for unknown paths
  // Event-loop internals.
  obs::Histogram* epoll_ready_fds_ = nullptr;
  obs::Histogram* epoll_iteration_us_ = nullptr;
  obs::Counter* timer_arms_ = nullptr;
  obs::Counter* timer_lazy_cancels_ = nullptr;
  obs::Counter* timer_fires_ = nullptr;
  obs::Counter* timer_cascades_ = nullptr;
  obs::Counter* timer_late_fires_ = nullptr;
};

}  // namespace asrel::serve
