#include "serve/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/fault_inject.hpp"
#include "serve/json.hpp"
#include "serve/response_writer.hpp"

namespace asrel::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kListenBacklog = 128;
/// Default span / event counts served by /tracez and /logz (?n= overrides).
constexpr std::size_t kTracezDefaultSpans = 256;
constexpr std::size_t kLogzDefaultEvents = 256;
/// Slowest requests retained per route for /slowz.
constexpr std::size_t kSlowRingCapacity = 8;

/// Sends the whole buffer, tolerating partial writes and EINTR. Routed
/// through the fault injector so chaos tests can force short writes.
/// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE. Bytes that made it
/// onto the wire are credited to `bytes_out` even on a failed send.
bool send_all(int fd, std::string_view bytes,
              obs::Counter* bytes_out = nullptr) {
  auto& faults = fault::FaultInjector::instance();
  std::size_t sent = 0;
  bool ok = true;
  while (sent < bytes.size()) {
    const ssize_t n = faults.send(fd, bytes.data() + sent,
                                  bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ok = false;
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  if (bytes_out != nullptr && sent > 0) bytes_out->add(sent);
  return ok;
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.request_deadline_ms < 1) options_.request_deadline_ms = 1;

  accepted_ = &metrics_.counter("asrel_http_connections_accepted_total",
                                "Connections accepted by the listener");
  requests_ = &metrics_.counter("asrel_http_requests_total",
                                "Requests dispatched to a handler");
  responses_2xx_ = &metrics_.counter(
      "asrel_http_responses_total{code=\"2xx\"}", "Responses by status class");
  responses_4xx_ =
      &metrics_.counter("asrel_http_responses_total{code=\"4xx\"}");
  responses_5xx_ =
      &metrics_.counter("asrel_http_responses_total{code=\"5xx\"}");
  malformed_ = &metrics_.counter("asrel_http_malformed_total",
                                 "Requests rejected as unparseable");
  timeouts_ = &metrics_.counter("asrel_http_timeouts_total",
                                "Requests that hit a read timeout/deadline");
  overload_rejected_ = &metrics_.counter(
      "asrel_http_shed_total", "Connections shed with 503 at admission");
  accept_retried_ = &metrics_.counter("asrel_http_accept_retried_total",
                                      "EINTR/ECONNABORTED accept retries");
  emfile_recoveries_ =
      &metrics_.counter("asrel_http_emfile_recoveries_total",
                        "fd-exhaustion emergency-path activations");
  drained_ = &metrics_.counter("asrel_http_drained_total",
                               "Connections finished during drain");
  aborted_ = &metrics_.counter("asrel_http_aborted_total",
                               "Connections force-closed");
  deadline_exceeded_ =
      &metrics_.counter("asrel_http_deadline_exceeded_total",
                        "Requests that overran the total deadline");
  bytes_read_ = &metrics_.counter("asrel_http_bytes_read_total",
                                  "Request bytes received");
  bytes_written_ = &metrics_.counter("asrel_http_bytes_written_total",
                                     "Response bytes sent");

  // Per-route latency histograms come from a closed set fixed here;
  // anything else lands in the "other" series (cardinality rule). The
  // slow rings follow the same closed set, so /slowz cardinality is
  // bounded too.
  std::vector<std::string> routes{"/healthz", "/statsz", "/metricsz",
                                  "/tracez",  "/logz",   "/slowz"};
  routes.insert(routes.end(), options_.metrics_routes.begin(),
                options_.metrics_routes.end());
  for (const std::string& route : routes) {
    route_latency_[route] = RouteObs{
        &metrics_.histogram(
            "asrel_http_request_duration_us{route=\"" + route + "\"}",
            obs::latency_buckets_us(),
            "Request latency from dispatch to response queued "
            "(microseconds)"),
        "http " + route,
        std::make_unique<obs::SlowRing>(kSlowRingCapacity)};
  }
  other_route_ = RouteObs{
      &metrics_.histogram("asrel_http_request_duration_us{route=\"other\"}",
                          obs::latency_buckets_us()),
      "http other",
      std::make_unique<obs::SlowRing>(kSlowRingCapacity)};

  // Event-loop internals.
  static const std::vector<double> kReadySetBounds{1, 2, 4, 8, 16, 32, 64,
                                                   128, 256};
  epoll_ready_fds_ = &metrics_.histogram(
      "asrel_epoll_loop_ready_fds", kReadySetBounds,
      "Ready descriptors returned per epoll_wait");
  epoll_iteration_us_ = &metrics_.histogram(
      "asrel_epoll_loop_iteration_us", obs::latency_buckets_us(),
      "Wall time per event-loop iteration (microseconds)");
  timer_arms_ = &metrics_.counter("asrel_timer_arms_total",
                                  "Timer-wheel arm/re-arm operations");
  timer_lazy_cancels_ = &metrics_.counter(
      "asrel_timer_lazy_cancels_total",
      "Stale wheel entries skipped at their slot (superseded or cancelled)");
  timer_fires_ = &metrics_.counter("asrel_timer_fires_total",
                                   "Timer callbacks fired");
  timer_cascades_ = &metrics_.counter(
      "asrel_timer_cascades_total",
      "Beyond-horizon entries re-enqueued when their slot came due");
  timer_late_fires_ = &metrics_.counter(
      "asrel_timer_late_fires_total",
      "Fires observed >= 1 full wheel revolution past their deadline "
      "(regression guard for the sweep-cursor clamp)");
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return fail("socket()");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_ANY);
  address.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    return fail("bind()");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return fail("listen()");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    return fail("getsockname()");
  }
  bound_port_ = ntohs(address.sin_port);

  // The emergency fd: held open so that under EMFILE a loop can close
  // it, accept the waiting connection, shed it politely, and reopen the
  // reserve — instead of spinning on accept() forever.
  reserve_fd_ = ::open("/dev/null", O_RDONLY);

  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  if (!epoll_start(error)) {
    stop();
    return false;
  }
  return true;
}

void HttpServer::join_all() {
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock{active_mutex_};
    for (const int fd : active_fds_) {
      aborted_fds_.insert(fd);
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  wake_loops();
  join_all();
}

DrainReport HttpServer::drain() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Already stopped (or drained): report the recorded counts.
    return DrainReport{.drained = drained_->value(),
                       .aborted = aborted_->value()};
  }
  draining_.store(true, std::memory_order_release);
  static obs::LogSite drain_begin_site{"serve.http", "drain_begin", 0};
  obs::log_event(drain_begin_site, obs::LogLevel::kInfo, 0,
                 {{"deadline_ms", options_.drain_deadline_ms}});

  // Phase 1: stop admitting. The listener leaves every loop's epoll set,
  // and whatever was still in the kernel backlog gets the shed 503.
  close_listener();

  // Phase 2: let the loops finish in-flight connections.
  // A connection closes after the response it is currently serving (the
  // loops answer with Connection: close while draining_), so "drained"
  // converges fast for busy connections; idle keep-alives wait here until
  // the deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock{active_mutex_};
      if (active_fds_.empty()) break;
    }
    if (Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 3: the grace period is over — abort stragglers.
  {
    std::lock_guard<std::mutex> lock{active_mutex_};
    for (const int fd : active_fds_) {
      aborted_fds_.insert(fd);
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  stopping_.store(true, std::memory_order_release);
  wake_loops();
  join_all();
  static obs::LogSite drain_done_site{"serve.http", "drain_done", 0};
  obs::log_event(drain_done_site, obs::LogLevel::kInfo, 0,
                 {{"drained", drained_->value()},
                  {"aborted", aborted_->value()}});
  return DrainReport{.drained = drained_->value(),
                     .aborted = aborted_->value()};
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.accepted = accepted_->value();
  stats.requests = requests_->value();
  stats.responses_2xx = responses_2xx_->value();
  stats.responses_4xx = responses_4xx_->value();
  stats.responses_5xx = responses_5xx_->value();
  stats.malformed = malformed_->value();
  stats.timeouts = timeouts_->value();
  stats.overload_rejected = overload_rejected_->value();
  stats.accept_retried = accept_retried_->value();
  stats.emfile_recoveries = emfile_recoveries_->value();
  stats.drained = drained_->value();
  stats.aborted = aborted_->value();
  stats.deadline_exceeded = deadline_exceeded_->value();
  stats.bytes_read = bytes_read_->value();
  stats.bytes_written = bytes_written_->value();
  return stats;
}

std::vector<std::pair<std::string, std::uint64_t>>
HttpServer::deadline_exceeded_by_route() const {
  std::lock_guard<std::mutex> lock{deadline_mutex_};
  std::vector<std::pair<std::string, std::uint64_t>> routes{
      deadline_by_route_.begin(), deadline_by_route_.end()};
  return routes;
}

void HttpServer::note_deadline_exceeded(const std::string& route,
                                        std::uint64_t request_id) {
  deadline_exceeded_->inc();
  static obs::LogSite deadline_site{"serve.http", "deadline_exceeded", 10};
  obs::log_event(deadline_site, obs::LogLevel::kWarn, request_id,
                 {{"route", route}});
  std::lock_guard<std::mutex> lock{deadline_mutex_};
  ++deadline_by_route_[route];
}

void HttpServer::shed_connection(int fd) {
  overload_rejected_->inc();
  // Rate-capped: a shed storm is exactly when the log must not flood.
  static obs::LogSite shed_site{"serve.accept", "shed", 10};
  obs::log_event(shed_site, obs::LogLevel::kWarn, 0,
                 {{"max_connections", options_.max_connections},
                  {"retry_after_s", options_.retry_after_hint_s}});
  refuse(fd);
}

/// The one shed response: admission sheds, fd-exhaustion sheds and
/// drain's backlog abort all send these bytes.
void HttpServer::refuse(int fd) {
  send_all(fd,
           render_http_response(make_shed_response(options_.retry_after_hint_s),
                                false),
           bytes_written_);
  ::close(fd);
}

void HttpServer::observe_request(const std::string& path,
                                 std::uint64_t duration_us,
                                 std::uint64_t trace_start_us, bool tracing,
                                 const RequestObservation& observation) {
  const auto it = route_latency_.find(path);
  const bool known = it != route_latency_.end();
  const RouteObs& route = known ? it->second : other_route_;
  route.latency->observe(static_cast<double>(duration_us));
  if (tracing) {
    // Request spans are depth-0 roots; the label follows the same
    // closed-set rule as the histograms so traces stay bounded too, and
    // the names are preassembled so tracing adds no allocations here.
    obs::Tracer::instance().record(route.span_name, trace_start_us,
                                   duration_us, /*cpu_us=*/0, /*depth=*/0,
                                   observation.request_id);
  }
  obs::SlowEntry entry;
  entry.request_id = observation.request_id;
  entry.latency_us = duration_us;
  entry.epoch = options_.epoch_supplier ? options_.epoch_supplier() : 0;
  entry.response_bytes = observation.response_bytes;
  entry.flush_stalls = observation.flush_stalls;
  entry.wall_unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  if (route.slow->offer(entry)) {
    // A new route-worst request: log it while the id is hot, so /logz
    // joins /slowz even for requests that never erred. Rate-capped — at
    // steady state entering the top-K is rare by definition, but a cold
    // ring would otherwise log every early request.
    static obs::LogSite slow_site{"serve.http", "slow_request", 8};
    const std::string_view route_name =
        known ? std::string_view{path} : std::string_view{"other"};
    obs::log_event(slow_site, obs::LogLevel::kInfo, observation.request_id,
                   {{"route", route_name},
                    {"latency_us", duration_us},
                    {"bytes", observation.response_bytes},
                    {"flush_stalls", observation.flush_stalls},
                    {"epoch", entry.epoch}});
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  const auto route = [&]() -> HttpResponse {
    if (request.path == "/healthz") {
      return HttpResponse::json(200, R"({"status":"ok"})");
    }
    if (request.path == "/statsz") {
      return HttpResponse::json(200, statsz_body());
    }
    if (request.path == "/metricsz") {
      HttpResponse response = HttpResponse::json(200, metricsz_body());
      response.content_type = obs::kPrometheusContentType;
      return response;
    }
    if (request.path == "/tracez") {
      return HttpResponse::json(200, tracez_body(request));
    }
    if (request.path == "/logz") {
      return HttpResponse::json(200, logz_body(request));
    }
    if (request.path == "/slowz") {
      return HttpResponse::json(200, slowz_body());
    }
    if (request.method != "GET" && request.method != "POST") {
      return HttpResponse::json(405, R"({"error":"method not allowed"})");
    }
    if (!handler_) {
      return HttpResponse::json(404, R"({"error":"no handler registered"})");
    }
    return handler_(request);
  };
  HttpResponse response = route();
  // Every dispatched response — handler or built-in, success or error —
  // echoes its request id. This is the join key across /slowz, /tracez,
  // /logz, and whatever the client logged on its side.
  response.headers.emplace_back("X-Request-Id",
                                obs::format_request_id(request.request_id));
  return response;
}

std::string HttpServer::metricsz_body() const {
  // One exposition covers this server's registry, the process-global one
  // (pool, stages, reloads, faults), and any scrape-time supplement.
  std::vector<obs::MetricSnapshot> snapshots = metrics_.snapshot();
  std::vector<obs::MetricSnapshot> global =
      obs::MetricsRegistry::global().snapshot();
  snapshots.insert(snapshots.end(),
                   std::make_move_iterator(global.begin()),
                   std::make_move_iterator(global.end()));
  // Ring-health counters live in the tracer/log structures themselves;
  // surface them as scrape-time series so dashboards can alert on
  // observability data loss.
  const auto scrape_counter = [&snapshots](std::string name, std::string help,
                                           std::uint64_t value) {
    obs::MetricSnapshot snapshot;
    snapshot.name = std::move(name);
    snapshot.help = std::move(help);
    snapshot.type = obs::MetricType::kCounter;
    snapshot.value = static_cast<double>(value);
    snapshots.push_back(std::move(snapshot));
  };
  scrape_counter("asrel_trace_dropped_total",
                 "Trace spans overwritten after their ring filled",
                 obs::Tracer::instance().dropped());
  scrape_counter("asrel_log_dropped_total",
                 "Log events overwritten after their ring filled",
                 obs::EventLog::instance().dropped());
  scrape_counter("asrel_log_suppressed_total",
                 "Log events refused by per-site rate caps",
                 obs::EventLog::instance().suppressed());
  if (options_.metrics_supplement) options_.metrics_supplement(snapshots);
  return obs::render_prometheus(std::move(snapshots));
}

std::string HttpServer::tracez_body(const HttpRequest& request) const {
  std::size_t n = kTracezDefaultSpans;
  if (const std::string* param = request.query_param("n")) {
    const long parsed = std::strtol(param->c_str(), nullptr, 10);
    if (parsed > 0) n = static_cast<std::size_t>(parsed);
  }
  n = std::min<std::size_t>(n, 16384);
  // ?route=/rel narrows to that route's request spans ("http /rel");
  // ?id=<hex> narrows to one request. Both filters apply after the
  // recency cut, matching how an operator works: pull a window, then
  // grep it down.
  std::string span_name_filter;
  if (const std::string* route = request.query_param("route")) {
    span_name_filter = "http " + *route;
  }
  std::uint64_t id_filter = 0;
  if (const std::string* id = request.query_param("id")) {
    (void)obs::parse_request_id(*id, &id_filter);
  }
  const auto& tracer = obs::Tracer::instance();
  const std::vector<obs::SpanRecord> spans = tracer.recent(n);
  JsonWriter json;
  json.begin_object();
  json.field("enabled", tracer.enabled());
  json.field("dropped", tracer.dropped());
  json.key("spans").begin_array();
  for (const obs::SpanRecord& span : spans) {
    if (!span_name_filter.empty() && span.name != span_name_filter) continue;
    if (id_filter != 0 && span.request_id != id_filter) continue;
    json.begin_object();
    json.field("name", span.name);
    json.field("start_us", span.start_us);
    json.field("dur_us", span.dur_us);
    json.field("cpu_us", span.cpu_us);
    json.field("tid", span.tid);
    json.field("depth", span.depth);
    json.field("seq", span.seq);
    if (span.request_id != 0) {
      json.field("request_id", obs::format_request_id(span.request_id));
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string HttpServer::logz_body(const HttpRequest& request) const {
  std::size_t n = kLogzDefaultEvents;
  if (const std::string* param = request.query_param("n")) {
    const long parsed = std::strtol(param->c_str(), nullptr, 10);
    if (parsed > 0) n = static_cast<std::size_t>(parsed);
  }
  n = std::min<std::size_t>(n, 16384);
  std::uint64_t id_filter = 0;
  if (const std::string* id = request.query_param("id")) {
    (void)obs::parse_request_id(*id, &id_filter);
  }
  const obs::EventLog& log = obs::EventLog::instance();
  JsonWriter json;
  json.begin_object();
  json.field("enabled", log.enabled());
  json.field("dropped", log.dropped());
  json.field("suppressed", log.suppressed());
  json.key("events").begin_array();
  std::string rendered;
  for (const obs::LogEvent& event : log.recent(n)) {
    if (id_filter != 0 && event.request_id != id_filter) continue;
    rendered.clear();
    obs::EventLog::render_event(event, rendered);
    json.raw(rendered);
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string HttpServer::slowz_body() const {
  // Deterministic route order (sorted), entries slowest-first within each
  // route (SlowRing::snapshot's contract).
  std::vector<const std::string*> routes;
  routes.reserve(route_latency_.size());
  for (const auto& [route, _] : route_latency_) routes.push_back(&route);
  std::sort(routes.begin(), routes.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  JsonWriter json;
  json.begin_object();
  json.field("capacity", static_cast<std::uint64_t>(kSlowRingCapacity));
  json.key("routes").begin_object();
  const auto render_route = [&json](const std::string& name,
                                    const obs::SlowRing& ring) {
    json.key(name).begin_array();
    for (const obs::SlowEntry& entry : ring.snapshot()) {
      json.begin_object();
      json.field("request_id", obs::format_request_id(entry.request_id));
      json.field("latency_us", entry.latency_us);
      json.field("epoch", entry.epoch);
      json.field("bytes", entry.response_bytes);
      json.field("flush_stalls", entry.flush_stalls);
      json.field("ts_ms", entry.wall_unix_ms);
      json.end_object();
    }
    json.end_array();
  };
  for (const std::string* route : routes) {
    render_route(*route, *route_latency_.at(*route).slow);
  }
  render_route("other", *other_route_.slow);
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

std::string HttpServer::statsz_body() const {
  const HttpServerStats s = stats();
  JsonWriter json;
  json.begin_object();
  json.key("requests").begin_object();
  json.field("accepted_connections", s.accepted);
  json.field("total", s.requests);
  json.field("responses_2xx", s.responses_2xx);
  json.field("responses_4xx", s.responses_4xx);
  json.field("responses_5xx", s.responses_5xx);
  json.field("malformed", s.malformed);
  json.field("timeouts", s.timeouts);
  json.field("bytes_read", s.bytes_read);
  json.field("bytes_written", s.bytes_written);
  json.end_object();
  json.key("resilience").begin_object();
  json.field("shed", s.overload_rejected);
  json.field("accept_retried", s.accept_retried);
  json.field("emfile_recoveries", s.emfile_recoveries);
  json.field("drained", s.drained);
  json.field("aborted", s.aborted);
  json.field("deadline_exceeded", s.deadline_exceeded);
  json.key("deadline_exceeded_by_route").begin_object();
  for (const auto& [route, count] : deadline_exceeded_by_route()) {
    json.field(route, count);
  }
  json.end_object();
  json.end_object();
  json.field("workers", options_.worker_threads);
  if (options_.stats_supplement) {
    const std::string extra = options_.stats_supplement();
    if (!extra.empty()) json.key("app").raw(extra);
  }
  json.end_object();
  return std::move(json).str();
}

}  // namespace asrel::serve
