// Observability layer: lock-free counters/histograms under concurrent
// hammering (the TSan job runs the Obs.* filter), Prometheus bucket
// semantics and the nearest-rank quantile rule, span nesting/export
// determinism, the /metricsz exposition format, and the layer's central
// invariant — analysis reports are byte-identical with tracing enabled.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bias_audit.hpp"
#include "core/scenario.hpp"
#include "eval/coverage.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slow_ring.hpp"
#include "obs/trace.hpp"
#include "serve/http_server.hpp"

namespace asrel {
namespace {

/// Strict RFC 8259 check: `text` is exactly one JSON value, surrounded by
/// nothing but whitespace. Catches a torn or mis-spliced render and any
/// string a writer failed to escape.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_space();
    if (!value()) return false;
    skip_space();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool at(char c) const {
    return pos_ < text_.size() && text_[pos_] == c;
  }
  [[nodiscard]] bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }
  bool eat(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  void skip_space() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }
  void skip_digits() {
    while (at_digit()) ++pos_;
  }

  bool value() {
    if (at('{')) return members('}', true);
    if (at('[')) return members(']', false);
    if (at('"')) return string();
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return true;
      }
    }
    return number();
  }

  /// An object (`keyed`) or an array, opening bracket included.
  bool members(char close, bool keyed) {
    ++pos_;
    skip_space();
    if (eat(close)) return true;
    do {
      skip_space();
      if (keyed) {
        if (!string()) return false;
        skip_space();
        if (!eat(':')) return false;
        skip_space();
      }
      if (!value()) return false;
      skip_space();
    } while (eat(','));
    return eat(close);
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      if (escape == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= text_.size() ||
              std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
            return false;
          }
        }
      } else if (std::string_view{"\"\\/bfnrt"}.find(escape) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    eat('-');
    if (!eat('0')) {
      if (!at_digit()) return false;
      skip_digits();
    }
    if (eat('.')) {
      if (!at_digit()) return false;
      skip_digits();
    }
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!at_digit()) return false;
      skip_digits();
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool parses_as_json(std::string_view text) {
  return JsonChecker{text}.valid();
}

// ---------------------------------------------------------------- counters

TEST(Obs, CounterConcurrentHammering) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Obs, GaugeSetAndAdd) {
  obs::Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
}

// -------------------------------------------------------------- histograms

TEST(Obs, HistogramBucketBoundariesAreLessOrEqual) {
  // Prometheus `le` semantics: an observation exactly at a bound belongs
  // to that bound's bucket, not the next one.
  obs::Histogram hist{{1.0, 2.0, 4.0}};
  hist.observe(1.0);   // bucket le=1
  hist.observe(1.5);   // bucket le=2
  hist.observe(2.0);   // bucket le=2
  hist.observe(4.0);   // bucket le=4
  hist.observe(4.01);  // +Inf
  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0 + 1.5 + 2.0 + 4.0 + 4.01);
}

TEST(Obs, HistogramConcurrentObserve) {
  obs::Histogram hist{obs::latency_buckets_us()};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>(50 + (i * 37 + t) % 1000));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_total = 0;
  for (const auto c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Obs, QuantileNearestRankSmallSample) {
  // The regression the shared estimator exists for: with 10 samples
  // 1..10, p99 must be the maximum. The old sorted-vector form
  // `v[floor(0.99 * 9)]` picked the 9th-smallest (index 8) instead.
  obs::Histogram hist{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}};
  for (int v = 1; v <= 10; ++v) hist.observe(static_cast<double>(v));
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(snap, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(snap, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(snap, 0.0), 1.0);  // rank >= 1
}

TEST(Obs, QuantileInterpolatesInsideBucket) {
  // 4 observations in one [0, 100] bucket: rank r sits at r/4 of the way.
  obs::Histogram hist{{100.0, 200.0}};
  for (int i = 0; i < 4; ++i) hist.observe(50.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(hist.snapshot(), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(hist.snapshot(), 1.0), 100.0);
}

TEST(Obs, QuantileEmptyAndInfBucket) {
  obs::Histogram hist{{10.0}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(hist.snapshot(), 0.99), 0.0);
  hist.observe(1e9);  // lands in +Inf: estimate clamps to the last bound
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(hist.snapshot(), 0.99), 10.0);
}

// ---------------------------------------------------------------- registry

TEST(Obs, RegistryReturnsStableInstruments) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("asrel_test_total", "first help wins");
  obs::Counter& b = registry.counter("asrel_test_total", "ignored");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Obs, RegistrySnapshotIsNameSortedAndIncludesCollectors) {
  obs::MetricsRegistry registry;
  registry.counter("asrel_zz_total").add(2);
  registry.gauge("asrel_aa_depth").set(5);
  registry.add_collector([](std::vector<obs::MetricSnapshot>& out) {
    obs::MetricSnapshot snap;
    snap.name = "asrel_mm_total";
    snap.type = obs::MetricType::kCounter;
    snap.value = 9.0;
    out.push_back(std::move(snap));
  });
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "asrel_aa_depth");
  EXPECT_EQ(snaps[1].name, "asrel_mm_total");
  EXPECT_EQ(snaps[2].name, "asrel_zz_total");
}

TEST(Obs, PrometheusRenderGolden) {
  obs::MetricsRegistry registry;
  registry.counter("asrel_req_total{route=\"/rel\"}", "Requests by route")
      .add(3);
  registry.counter("asrel_req_total{route=\"other\"}").add(1);
  registry.gauge("asrel_depth", "Queue depth").set(4);
  auto& hist = registry.histogram("asrel_lat_us{route=\"/rel\"}",
                                  {1.0, 2.5}, "Latency");
  hist.observe(1.0);
  hist.observe(2.0);
  hist.observe(9.0);
  const std::string text = obs::render_prometheus(registry.snapshot());
  EXPECT_EQ(text,
            "# HELP asrel_depth Queue depth\n"
            "# TYPE asrel_depth gauge\n"
            "asrel_depth 4\n"
            "# HELP asrel_lat_us Latency\n"
            "# TYPE asrel_lat_us histogram\n"
            "asrel_lat_us_bucket{route=\"/rel\",le=\"1\"} 1\n"
            "asrel_lat_us_bucket{route=\"/rel\",le=\"2.5\"} 2\n"
            "asrel_lat_us_bucket{route=\"/rel\",le=\"+Inf\"} 3\n"
            "asrel_lat_us_sum{route=\"/rel\"} 12\n"
            "asrel_lat_us_count{route=\"/rel\"} 3\n"
            "# HELP asrel_req_total Requests by route\n"
            "# TYPE asrel_req_total counter\n"
            "asrel_req_total{route=\"/rel\"} 3\n"
            "asrel_req_total{route=\"other\"} 1\n");
}

/// A Prometheus text page: every line is a comment or `series value` with
/// a parseable number. Returns the number of sample lines.
std::size_t check_exposition(const std::string& text) {
  std::size_t samples = 0;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      ADD_FAILURE() << "blank line in exposition";
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "sample line without a value: " << line;
      continue;
    }
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
    ++samples;
  }
  return samples;
}

// ------------------------------------------------------------------ spans

TEST(Obs, SpanNestingAndDeterministicOrder) {
  auto& tracer = obs::Tracer::instance();
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  tracer.clear();
  {
    obs::TraceSpan outer{"obs.test.outer"};
    { obs::TraceSpan inner{"obs.test.inner"}; }
  }
  { obs::TraceSpan second{"obs.test.second"}; }

  std::vector<obs::SpanRecord> mine;
  for (const auto& span : tracer.collect()) {
    if (span.name.rfind("obs.test.", 0) == 0) mine.push_back(span);
  }
  ASSERT_EQ(mine.size(), 3u);
  // One thread: completion order is inner, outer, second — and stays that
  // way on every run.
  EXPECT_EQ(mine[0].name, "obs.test.inner");
  EXPECT_EQ(mine[1].name, "obs.test.outer");
  EXPECT_EQ(mine[2].name, "obs.test.second");
  EXPECT_EQ(mine[0].depth, 1u);
  EXPECT_EQ(mine[1].depth, 0u);
  EXPECT_EQ(mine[2].depth, 0u);
  EXPECT_LT(mine[0].seq, mine[1].seq);
  EXPECT_LT(mine[1].seq, mine[2].seq);
  // The inner span nests inside the outer one's wall-clock window.
  EXPECT_GE(mine[0].start_us, mine[1].start_us);
  EXPECT_LE(mine[0].start_us + mine[0].dur_us,
            mine[1].start_us + mine[1].dur_us);

  // recent(1) returns the newest by global sequence.
  const auto recent = tracer.recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].name, "obs.test.second");
}

TEST(Obs, SpanDisabledRecordsNothing) {
  auto& tracer = obs::Tracer::instance();
  obs::ScopedTracing tracing{false, /*clear_on_exit=*/true};
  tracer.clear();
  { obs::TraceSpan span{"obs.test.silent"}; }
  for (const auto& span : tracer.collect()) {
    EXPECT_NE(span.name, "obs.test.silent");
  }
}

TEST(Obs, SpanRingOverwritesOldestAndCountsDrops) {
  auto& tracer = obs::Tracer::instance();
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  tracer.clear();
  tracer.set_capacity_per_thread(4);
  const std::uint64_t dropped_before = tracer.dropped();
  // Capacity applies to threads that register after the call, so record
  // from a fresh thread.
  std::thread([] {
    for (int i = 0; i < 10; ++i) {
      obs::TraceSpan span{"obs.test.ring." + std::to_string(i)};
    }
  }).join();
  tracer.set_capacity_per_thread(4096);  // restore the default

  std::vector<std::string> names;
  for (const auto& span : obs::Tracer::instance().collect()) {
    if (span.name.rfind("obs.test.ring.", 0) == 0) {
      names.push_back(span.name);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "obs.test.ring.6", "obs.test.ring.7",
                       "obs.test.ring.8", "obs.test.ring.9"}));
  EXPECT_EQ(tracer.dropped() - dropped_before, 6u);
}

TEST(Obs, ChromeTraceJsonHasOneEventPerSpan) {
  auto& tracer = obs::Tracer::instance();
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  tracer.clear();
  { obs::TraceSpan span{"obs.test.chrome"}; }
  // A name with a quote and a backslash must come out escaped.
  { obs::TraceSpan span{"obs.test.\"quoted\\path\""}; }
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(R"("obs.test.\"quoted\\path\"")"), std::string::npos)
      << json;
  EXPECT_TRUE(parses_as_json(json)) << json;
}

// ------------------------------------------- tracing never changes output

TEST(Obs, ReportsByteIdenticalWithTracingEnabled) {
  core::ScenarioParams params;
  params.topology.as_count = 400;
  params.topology.seed = 7;

  const auto render = [&] {
    const auto scenario = core::Scenario::build(params);
    const core::BiasAudit audit{*scenario};
    return eval::render_coverage(audit.regional_coverage()) + "\n" +
           eval::render_coverage(audit.topological_coverage());
  };

  std::string plain, traced;
  {
    obs::ScopedTracing tracing{false, /*clear_on_exit=*/true};
    plain = render();
  }
  {
    obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
    traced = render();
    // The traced run actually recorded pipeline spans...
    bool saw_stage = false;
    for (const auto& span : obs::Tracer::instance().collect()) {
      saw_stage = saw_stage || span.name == "pipeline.build";
    }
    EXPECT_TRUE(saw_stage);
  }
  // ...and produced the exact same bytes.
  EXPECT_EQ(plain, traced);

  // The build also fed the always-on stage metrics in the global registry.
  const std::string text =
      obs::render_prometheus(obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("asrel_stage_runs_total{stage=\"pipeline.build\"}"),
            std::string::npos);
  EXPECT_NE(text.find("asrel_stage_duration_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("asrel_pool_"), std::string::npos);
  check_exposition(text);
}

// ------------------------------------------------------- /metricsz, /tracez

/// Minimal blocking keep-alive client (same shape as test_serve.cpp's).
class ObsTestClient {
 public:
  explicit ObsTestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ObsTestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// `extra_header`, when nonempty, must be full header lines each ending
  /// in "\r\n" (e.g. "X-Request-Id: beef\r\n"). `headers` receives the raw
  /// status line + header block when non-null.
  int get(const std::string& path, std::string* body = nullptr,
          const std::string& extra_header = {},
          std::string* headers = nullptr) {
    const std::string raw = "GET " + path + " HTTP/1.1\r\nHost: test\r\n" +
                            extra_header + "\r\n";
    if (::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(raw.size())) {
      return -1;
    }
    std::string data = std::move(leftover_);
    leftover_.clear();
    std::size_t header_end;
    while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
      if (!recv_more(&data)) return -1;
    }
    if (headers != nullptr) *headers = data.substr(0, header_end + 4);
    std::size_t content_length = 0;
    const std::size_t cl = data.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<std::size_t>(
          std::strtoull(data.c_str() + cl + 16, nullptr, 10));
    }
    const std::size_t total = header_end + 4 + content_length;
    while (data.size() < total) {
      if (!recv_more(&data)) return -1;
    }
    if (body != nullptr) *body = data.substr(header_end + 4, content_length);
    leftover_ = data.substr(total);
    return std::atoi(data.c_str() + data.find(' ') + 1);
  }

 private:
  bool recv_more(std::string* data) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    data->append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string leftover_;
};

TEST(Obs, HttpMetricszAndTracez) {
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  obs::Tracer::instance().clear();

  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  options.metrics_routes = {"/ping"};
  options.metrics_supplement = [](std::vector<obs::MetricSnapshot>& out) {
    obs::MetricSnapshot snap;
    snap.name = "asrel_supplement_gauge";
    snap.type = obs::MetricType::kGauge;
    snap.value = 42.0;
    out.push_back(std::move(snap));
  };
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, "{\"pong\":true}");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ObsTestClient client{server.port()};
  ASSERT_TRUE(client.connected());
  std::string body;
  EXPECT_EQ(client.get("/ping", &body), 200);
  EXPECT_EQ(client.get("/elsewhere", &body), 200);  // folds into "other"

  EXPECT_EQ(client.get("/metricsz", &body), 200);
  EXPECT_GT(check_exposition(body), 10u);
  EXPECT_NE(body.find("# TYPE asrel_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("asrel_http_responses_total{code=\"2xx\"}"),
            std::string::npos);
  EXPECT_NE(
      body.find("asrel_http_request_duration_us_bucket{route=\"/ping\""),
      std::string::npos);
  EXPECT_NE(
      body.find("asrel_http_request_duration_us_count{route=\"other\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("asrel_supplement_gauge 42"), std::string::npos);
  // Global-registry families (pool/stage metrics from earlier tests in
  // this binary) merge into the same page.
  EXPECT_NE(body.find("asrel_http_bytes_read_total"), std::string::npos);

  // /tracez serves the most recent spans; the /ping requests above were
  // recorded because tracing is on.
  EXPECT_EQ(client.get("/tracez?n=64", &body), 200);
  EXPECT_NE(body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(body.find("\"http /ping\""), std::string::npos);
  EXPECT_NE(body.find("\"http other\""), std::string::npos);

  // An unparseable n falls back to the default window rather than erroring.
  EXPECT_EQ(client.get("/tracez?n=bogus", &body), 200);

  server.stop();
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 5u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
}

// ---------------------------------------------------------------- event log

/// Sleeps into the next monotonic second so a rate-capped LogSite starts
/// the test with a full per-second budget, regardless of what earlier
/// tests in this binary consumed from the current window.
void wait_for_fresh_rate_window() {
  const std::uint64_t second = obs::Tracer::instance().now_us() / 1000000;
  while (obs::Tracer::instance().now_us() / 1000000 == second) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Obs, EventLogConcurrentEmitKeepsTotalOrder) {
  obs::ScopedLogging logging{true, /*clear_on_exit=*/true};
  obs::EventLog& log = obs::EventLog::instance();
  log.clear();

  static obs::LogSite site{"obs.test", "concurrent", 0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  const std::uint64_t emitted_before = log.emitted();

  // A concurrent reader exercises the emit/snapshot race under TSan.
  std::atomic<bool> stop{false};
  std::thread reader{[&log, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)log.recent(32);
      (void)log.dropped();
    }
  }};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::log_event(site, obs::LogLevel::kInfo,
                       static_cast<std::uint64_t>(t) + 1,
                       {{"iter", i}, {"thread", t}});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Unlimited site: every emission is stored (per-thread rings are large
  // enough that nothing wraps).
  EXPECT_EQ(log.emitted() - emitted_before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);

  // The merged view is in strictly increasing global sequence order.
  const std::vector<obs::LogEvent> events = log.recent(kThreads * kPerThread);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(Obs, EventLogRateCapSuppressesFloods) {
  obs::ScopedLogging logging{true, /*clear_on_exit=*/true};
  obs::EventLog& log = obs::EventLog::instance();

  // Site unique to this test, so the cap's window starts unconsumed.
  static obs::LogSite site{"obs.test", "capped", 4};
  const std::uint64_t emitted_before = log.emitted();
  const std::uint64_t site_suppressed_before = site.suppressed.load();
  const std::uint64_t global_suppressed_before = log.suppressed();

  for (int i = 0; i < 20; ++i) {
    obs::log_event(site, obs::LogLevel::kWarn, 0, {{"i", i}});
  }

  // The burst takes microseconds, so it spans at most one window roll:
  // between cap and 2*cap events stored, the rest counted as suppressed.
  const std::uint64_t stored = log.emitted() - emitted_before;
  EXPECT_GE(stored, 4u);
  EXPECT_LE(stored, 8u);
  EXPECT_EQ(site.suppressed.load() - site_suppressed_before, 20u - stored);
  EXPECT_EQ(log.suppressed() - global_suppressed_before, 20u - stored);
}

TEST(Obs, EventLogRenderGolden) {
  // The /logz and flight-recorder schema: fixed key order, request_id
  // only when nonzero, fields spliced verbatim after the envelope.
  obs::LogEvent event;
  event.seq = 7;
  event.wall_unix_ms = 1700000000123ull;
  event.mono_us = 42000;
  event.request_id = 0xdeadbeefull;
  event.component = "stream.hub";
  event.event = "swap";
  event.level = obs::LogLevel::kWarn;
  event.tid = 3;
  event.fields_json = ",\"epoch\":9,\"ok\":true";

  std::string out;
  obs::EventLog::render_event(event, out);
  EXPECT_EQ(out,
            "{\"seq\":7,\"ts_ms\":1700000000123,\"mono_us\":42000,"
            "\"level\":\"warn\",\"component\":\"stream.hub\","
            "\"event\":\"swap\",\"tid\":3,"
            "\"request_id\":\"00000000deadbeef\",\"epoch\":9,\"ok\":true}");
  EXPECT_TRUE(parses_as_json(out));

  // request_id 0 means "not request-scoped" and the key is omitted.
  event.request_id = 0;
  event.fields_json.clear();
  out.clear();
  obs::EventLog::render_event(event, out);
  EXPECT_EQ(out.find("request_id"), std::string::npos);
  EXPECT_TRUE(parses_as_json(out));
}

TEST(Obs, JsonEscapingCoversQuotesAndControlChars) {
  std::string out;
  obs::append_json_escaped(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Obs, RequestIdFormatAndParse) {
  EXPECT_EQ(obs::format_request_id(0), "0000000000000000");
  EXPECT_EQ(obs::format_request_id(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(obs::format_request_id(0xffffffffffffffffull),
            "ffffffffffffffff");

  std::uint64_t id = 0;
  EXPECT_TRUE(obs::parse_request_id("ff", &id));
  EXPECT_EQ(id, 0xffu);
  EXPECT_TRUE(obs::parse_request_id("00000000DEADBEEF", &id));
  EXPECT_EQ(id, 0xdeadbeefull);
  for (const std::uint64_t value :
       {std::uint64_t{1}, std::uint64_t{0x123456789abcdef0ull}}) {
    EXPECT_TRUE(obs::parse_request_id(obs::format_request_id(value), &id));
    EXPECT_EQ(id, value);
  }

  EXPECT_FALSE(obs::parse_request_id("", nullptr));
  EXPECT_FALSE(obs::parse_request_id("12345678901234567", nullptr));  // 17
  EXPECT_FALSE(obs::parse_request_id("xyz", nullptr));
  EXPECT_FALSE(obs::parse_request_id("0x12", nullptr));
  EXPECT_FALSE(obs::parse_request_id("12 34", nullptr));
}

// ---------------------------------------------------------------- slow ring

TEST(Obs, SlowRingKeepsSlowestAndEvictsInOrder) {
  const auto entry = [](std::uint64_t id, std::uint64_t latency,
                        std::uint64_t wall) {
    obs::SlowEntry e;
    e.request_id = id;
    e.latency_us = latency;
    e.wall_unix_ms = wall;
    return e;
  };

  obs::SlowRing ring{3};
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(ring.offer(entry(1, 100, 1)));
  EXPECT_TRUE(ring.offer(entry(2, 50, 2)));
  EXPECT_TRUE(ring.offer(entry(3, 200, 3)));

  // Full ring: the floor (50) rejects faster candidates without a lock...
  EXPECT_FALSE(ring.offer(entry(4, 10, 4)));
  // ...a slower one displaces the fastest retained entry (id 2 at 50)...
  EXPECT_TRUE(ring.offer(entry(5, 60, 5)));
  // ...which raises the floor to 60.
  EXPECT_FALSE(ring.offer(entry(6, 55, 6)));
  // A tie with the floor evicts the older equal-latency entry, so the
  // ring turns over instead of pinning first arrivals.
  EXPECT_TRUE(ring.offer(entry(7, 60, 7)));

  const std::vector<obs::SlowEntry> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].request_id, 3u);  // 200us
  EXPECT_EQ(snap[1].request_id, 1u);  // 100us
  EXPECT_EQ(snap[2].request_id, 7u);  // 60us, the newer of the ties
}

TEST(Obs, SlowRingSnapshotOrdersTiesMostRecentFirst) {
  const auto entry = [](std::uint64_t id, std::uint64_t latency,
                        std::uint64_t wall) {
    obs::SlowEntry e;
    e.request_id = id;
    e.latency_us = latency;
    e.wall_unix_ms = wall;
    return e;
  };

  obs::SlowRing ring{4};
  EXPECT_TRUE(ring.offer(entry(1, 5, 10)));
  EXPECT_TRUE(ring.offer(entry(2, 5, 20)));
  EXPECT_TRUE(ring.offer(entry(9, 5, 20)));  // same wall: id ascending
  EXPECT_TRUE(ring.offer(entry(3, 7, 15)));
  const std::vector<obs::SlowEntry> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].request_id, 3u);  // slowest first
  EXPECT_EQ(snap[1].request_id, 2u);  // tie: most recent wall, lowest id
  EXPECT_EQ(snap[2].request_id, 9u);
  EXPECT_EQ(snap[3].request_id, 1u);

  // capacity 0 clamps to 1 rather than an unusable ring.
  obs::SlowRing tiny{0};
  EXPECT_EQ(tiny.capacity(), 1u);
}

// ------------------------------------------- request ids over the wire

std::string header_value(const std::string& headers, const std::string& name) {
  const std::string needle = name + ": ";
  const std::size_t at = headers.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t end = headers.find("\r\n", at);
  return headers.substr(at + needle.size(), end - at - needle.size());
}

TEST(ObsHttpRequestId, EchoAndJoinAcrossSlowzTracezLogz) {
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  obs::ScopedLogging logging{true, /*clear_on_exit=*/true};
  obs::Tracer::instance().clear();
  obs::EventLog::instance().clear();

  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  options.metrics_routes = {"/ping"};
  options.epoch_supplier = [] { return std::uint64_t{77}; };
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, "{\"pong\":true}");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // The slow_request log site is rate-capped per monotonic second; start
  // a fresh window so this test's retentions all get logged.
  wait_for_fresh_rate_window();

  ObsTestClient client{server.port()};
  ASSERT_TRUE(client.connected());
  std::string body;
  std::string headers;

  // A valid client id is echoed in canonical 16-hex form...
  EXPECT_EQ(client.get("/ping", &body,
                       "X-Request-Id: 00000000deadbeef\r\n", &headers),
            200);
  EXPECT_EQ(header_value(headers, "X-Request-Id"), "00000000deadbeef");

  // ...including short or uppercase ids, which normalize.
  EXPECT_EQ(client.get("/ping", &body, "X-Request-Id: BEEF\r\n", &headers),
            200);
  EXPECT_EQ(header_value(headers, "X-Request-Id"), "000000000000beef");

  // An unparseable id is ignored: the server mints one instead.
  EXPECT_EQ(client.get("/ping", &body, "X-Request-Id: not-hex!\r\n",
                       &headers),
            200);
  const std::string generated = header_value(headers, "X-Request-Id");
  EXPECT_EQ(generated.size(), 16u);
  std::uint64_t generated_id = 0;
  EXPECT_TRUE(obs::parse_request_id(generated, &generated_id));
  EXPECT_NE(generated_id, 0u);
  EXPECT_NE(generated, "0000000000000000");

  // No header at all: also minted, and distinct from the previous one.
  EXPECT_EQ(client.get("/ping", &body, "", &headers), 200);
  EXPECT_EQ(header_value(headers, "X-Request-Id").size(), 16u);
  EXPECT_NE(header_value(headers, "X-Request-Id"), generated);

  // The tagged request is findable in /slowz (a cold ring retains it),
  // stamped with the supplier's epoch.
  EXPECT_EQ(client.get("/slowz", &body), 200);
  EXPECT_TRUE(parses_as_json(body)) << body;
  EXPECT_NE(body.find("\"00000000deadbeef\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"epoch\":77"), std::string::npos);
  EXPECT_NE(body.find("\"/ping\":["), std::string::npos);
  EXPECT_NE(body.find("\"other\":["), std::string::npos);

  // ...in /tracez, both unfiltered-by-route and via ?id=.
  EXPECT_EQ(client.get("/tracez?id=00000000deadbeef", &body), 200);
  EXPECT_NE(body.find("\"request_id\":\"00000000deadbeef\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"http /ping\""), std::string::npos);

  // ?route= narrows to one route's spans.
  EXPECT_EQ(client.get("/tracez?route=/ping", &body), 200);
  EXPECT_NE(body.find("\"http /ping\""), std::string::npos);
  EXPECT_EQ(body.find("\"http other\""), std::string::npos) << body;

  // ...and in /logz via ?id=: retention in the slow ring logged the
  // request while its id was hot.
  EXPECT_EQ(client.get("/logz?id=00000000deadbeef", &body), 200);
  EXPECT_TRUE(parses_as_json(body)) << body;
  EXPECT_NE(body.find("\"event\":\"slow_request\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"request_id\":\"00000000deadbeef\""),
            std::string::npos);
  EXPECT_NE(body.find("\"enabled\":true"), std::string::npos);

  // Unfiltered /logz serves the ring with its bookkeeping fields; a bad
  // ?n= falls back to the default window rather than erroring.
  EXPECT_EQ(client.get("/logz?n=128", &body), 200);
  EXPECT_NE(body.find("\"events\":["), std::string::npos);
  EXPECT_NE(body.find("\"dropped\":"), std::string::npos);
  EXPECT_NE(body.find("\"suppressed\":"), std::string::npos);
  EXPECT_EQ(client.get("/logz?n=bogus", &body), 200);

  server.stop();
}

// ---------------------------------------------------------- flight recorder

TEST(Obs, FlightRecorderComposesValidJsonAndDumpsOnFatalSignal) {
  obs::ScopedLogging logging{true, /*clear_on_exit=*/true};
  namespace fs = std::filesystem;
  const fs::path crash_dir =
      fs::temp_directory_path() /
      ("asrel-obs-crash-" + std::to_string(::getpid()));
  fs::remove_all(crash_dir);

  obs::FlightRecorder::Config config;
  config.crash_dir = crash_dir.string();
  config.tool = "asrel_tests";
  config.build_info = "test-build";
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  std::string error;
  ASSERT_TRUE(flight.arm(config, &error)) << error;
  flight.set_epoch(42);

  static obs::LogSite site{"obs.test", "pre_crash", 0};
  obs::log_event(site, obs::LogLevel::kError, 0x1234,
                 {{"detail", "boom"}});
  flight.refresh();

  // In-process: the composed dump is exactly what the handler would
  // write, and it is structurally valid JSON with the live preamble.
  const std::string composed = flight.compose_for_test(SIGSEGV);
  EXPECT_TRUE(parses_as_json(composed)) << composed;
  EXPECT_NE(composed.find("\"signal\":11"), std::string::npos);
  EXPECT_NE(composed.find("\"signal_name\":\"SIGSEGV\""), std::string::npos);
  EXPECT_NE(composed.find("\"crash_epoch\":42"), std::string::npos);
  EXPECT_NE(composed.find("\"tool\":\"asrel_tests\""), std::string::npos);
  EXPECT_NE(composed.find("\"snapshot_epoch\":42"), std::string::npos);
  EXPECT_NE(composed.find("\"pre_crash\""), std::string::npos);
  EXPECT_NE(composed.find("\"request_id\":\"0000000000001234\""),
            std::string::npos);
  EXPECT_NE(composed.find("\"metrics\":{"), std::string::npos);

  // End-to-end: a forked child dies by SIGABRT; the inherited handler
  // writes the black box (to the path rendered at arm time, i.e. this
  // process's pid) and the re-raise preserves the signal exit status.
  const std::string dump_path = flight.dump_path();
  ASSERT_FALSE(dump_path.empty());
  fs::remove(dump_path);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::raise(SIGABRT);
    ::_exit(97);  // unreachable: the handler re-raises with SIG_DFL
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream in{dump_path};
  ASSERT_TRUE(in.good()) << "no crash dump at " << dump_path;
  const std::string dump{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_TRUE(parses_as_json(dump)) << dump;
  EXPECT_NE(dump.find("\"signal\":6"), std::string::npos);
  EXPECT_NE(dump.find("\"signal_name\":\"SIGABRT\""), std::string::npos);
  EXPECT_NE(dump.find("\"crash_epoch\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"crash_mono_us\":"), std::string::npos);
  EXPECT_NE(dump.find("\"pre_crash\""), std::string::npos);

  flight.disarm_for_test();
  fs::remove_all(crash_dir);
}

}  // namespace
}  // namespace asrel
