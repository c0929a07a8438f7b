#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <numeric>
#include <thread>

#include "client.hpp"
#include "obs/log.hpp"
#include "serve/request_assembler.hpp"
#include "serve/response_writer.hpp"

namespace perfbench {

namespace asn = asrel::asn;
namespace obs = asrel::obs;

namespace {

constexpr const char* kReportTargets[] = {
    "/report/regional", "/report/topological", "/report/table?algo=asrank",
    "/report/table?algo=problink", "/report/table?algo=toposcope"};

/// Request ids for sampled requests: a fixed high tag plus the sample's
/// position, so the echoed header is pinned and distinct per sample.
std::string sample_id(std::uint64_t n) {
  return obs::format_request_id(0x5a00000000000000ull | n);
}

}  // namespace

std::vector<ReadRequest> make_read_mix(std::size_t count, std::uint64_t seed,
                                       const std::vector<val::AsLink>& links,
                                       const std::vector<std::uint32_t>& asns,
                                       bool zipf) {
  SplitMix rng{seed};
  // Which links are hot depends on the seed: rank r maps to order[r].
  std::vector<std::size_t> order(links.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const Zipf skew{zipf ? links.size() : 1, 1.0};
  std::vector<ReadRequest> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ReadRequest request;
    const double u = rng.unit();
    if (u < 0.90) {
      const auto& link =
          links[order[zipf ? skew.draw(rng) : rng.below(links.size())]];
      request.route = Route::kRel;
      request.a = link.a.value();
      request.b = link.b.value();
      request.target = "/rel?a=" + std::to_string(request.a) +
                       "&b=" + std::to_string(request.b);
    } else if (u < 0.98) {
      request.route = Route::kAs;
      request.a = asns[rng.below(asns.size())];
      request.target = "/as?asn=" + std::to_string(request.a);
    } else {
      request.route = Route::kReport;
      request.target = kReportTargets[rng.below(std::size(kReportTargets))];
    }
    request.bytes = make_get(request.target);
    pool.push_back(std::move(request));
  }
  return pool;
}

serve::HttpServerOptions server_options(const serve::AsrelService& service,
                                        int loops) {
  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = loops;
  options.stats_supplement = [&service] { return service.stats_json(); };
  options.metrics_routes = serve::AsrelService::metric_routes();
  options.metrics_supplement =
      [&service](std::vector<obs::MetricSnapshot>& out) {
        service.collect_metrics(out);
      };
  options.epoch_supplier = [&service] { return service.hub().epoch(); };
  return options;
}

serve::HttpServer::Handler timed_handler(const serve::AsrelService& service) {
  return [&service](const serve::HttpRequest& request) {
    const char* name = request.path == "/rel"  ? "serve.handle.rel"
                       : request.path == "/as" ? "serve.handle.as"
                                               : "serve.handle.report";
    return traced(name, "serve.request",
                  [&] { return service.handle(request); });
  };
}

void PhaseStats::add_slice(std::vector<double>& latency_us, double rps) {
  slice_rps.push_back(rps);
  if (latency_us.empty()) return;
  std::sort(latency_us.begin(), latency_us.end());
  const Summary summary = summarize(latency_us, 0.99);
  slice_p50_us.push_back(summary.p50);
  slice_p90_us.push_back(percentile_sorted(latency_us, 0.90));
  slice_p99_us.push_back(summary.tail);
  latency_us.clear();
  slice_min_samples = slice_p50_us.size() == 1
                          ? summary.samples
                          : std::min(slice_min_samples, summary.samples);
}

void PhaseStats::merge(PhaseStats&& other) {
  sent += other.sent;
  succeeded += other.succeeded;
  failed += other.failed;
  response_bytes += other.response_bytes;
  backlog_max = std::max(backlog_max, other.backlog_max);
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  for (auto& sample : other.samples) samples.push_back(std::move(sample));
}

std::string PhaseStats::accounting_json(const std::string& name,
                                        Result& result) const {
  std::string out = "\"" + name + "\":{\"sent\":" + std::to_string(sent) +
                    ",\"succeeded\":" + std::to_string(succeeded) +
                    ",\"failed\":" + std::to_string(failed);
  if (!late_ms.empty()) {
    const Summary late = summarize(late_ms, 0.99);
    out += ",\"generator_late_p50_ms\":" + json_number(late.p50) +
           ",\"generator_late_max_ms\":" +
           json_number(*std::max_element(late_ms.begin(), late_ms.end())) +
           ",\"backlog_max\":" + std::to_string(backlog_max);
  }
  const auto list = [](const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ",";
      text += json_number(values[i]);
    }
    return text + "]";
  };
  out += ",\"slice_rps\":" + list(slice_rps) + ",\"slice_p50_us\":" +
         list(slice_p50_us) + ",\"slice_p90_us\":" + list(slice_p90_us) +
         ",\"slice_p99_us\":" + list(slice_p99_us);
  if (!slice_p50_us.empty()) {
    const std::size_t beyond = samples_beyond(slice_min_samples, 0.99);
    out += ",\"slice_min_samples\":" + std::to_string(slice_min_samples) +
           ",\"slice_p99_min_beyond\":" + std::to_string(beyond);
    if (!percentile_supported(slice_min_samples, 0.99)) {
      result.flagged.push_back(name + " slice p99 (" + std::to_string(beyond) +
                               " beyond of " +
                               std::to_string(slice_min_samples) + ")");
    }
  }
  out += ",\"samples_checked\":" + std::to_string(samples.size()) + "}";
  return out;
}

PhaseStats run_open_loop(std::uint16_t port,
                         const std::vector<ReadRequest>& pool,
                         int connections, double rate,
                         Clock::time_point start, Clock::time_point end) {
  const auto slices = static_cast<std::size_t>(
      std::ceil(std::chrono::duration<double>(end - start).count()));
  struct Worker {
    PhaseStats stats;
    std::vector<std::vector<double>> by_slice;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const double per_conn = rate / connections;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Worker& worker = workers[static_cast<std::size_t>(c)];
      PhaseStats& stats = worker.stats;
      worker.by_slice.resize(slices);
      // Connections interleave: connection c is offset by c/rate.
      const OpenLoopSchedule schedule{
          start + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(c * 1e9 / rate)),
          per_conn};
      HttpConn conn;
      const bool connected = conn.open(port);
      for (std::uint64_t i = 0;; ++i) {
        const Clock::time_point due = schedule.due(i);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        stats.late_ms.push_back(lateness_ms(due, sent));
        stats.backlog_max =
            std::max(stats.backlog_max, schedule.backlog(i, sent));
        const ReadRequest& request =
            pool[(i * static_cast<std::uint64_t>(connections) +
                  static_cast<std::uint64_t>(c)) %
                 pool.size()];
        ++stats.sent;
        std::size_t bytes = 0;
        const int status = connected && conn.send_all(request.bytes)
                               ? conn.read_response(nullptr, &bytes)
                               : -1;
        if (status == 200) {
          ++stats.succeeded;
          stats.response_bytes += bytes;
          const auto slice = static_cast<std::size_t>(
              std::chrono::duration<double>(due - start).count());
          worker.by_slice[std::min(slice, slices - 1)].push_back(
              ms_between(due, Clock::now()) * 1000.0);
        } else {
          ++stats.failed;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  PhaseStats total;
  std::vector<double> latency_us;
  for (std::size_t s = 0; s < slices; ++s) {
    for (auto& worker : workers) {
      latency_us.insert(latency_us.end(), worker.by_slice[s].begin(),
                        worker.by_slice[s].end());
    }
    const double count = static_cast<double>(latency_us.size());
    total.add_slice(latency_us, count);
  }
  for (auto& worker : workers) total.merge(std::move(worker.stats));
  return total;
}

PhaseStats run_closed_loop(std::uint16_t port,
                           const std::vector<ReadRequest>& pool,
                           int connections, int depth, double seconds,
                           int sample_every) {
  // At most this many sampled responses per connection and phase, so the
  // oracle's memory does not grow with throughput.
  constexpr std::size_t kMaxSamples = 128;
  struct Worker {
    PhaseStats stats;
    std::size_t next = 0;
    std::uint64_t count = 0;
    std::uint64_t completed = 0;  ///< requests answered inside the slice
    std::vector<double> latency_us;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    workers[static_cast<std::size_t>(c)].next =
        static_cast<std::size_t>(c) * 7919 % pool.size();
  }
  constexpr std::chrono::milliseconds kSlice{250};
  const long slices = std::max(
      1L, std::lround(seconds / std::chrono::duration<double>(kSlice).count()));
  PhaseStats total;
  std::vector<double> latency_us;
  for (long slice = 0; slice < slices; ++slice) {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    const Clock::time_point end = start + kSlice;
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        Worker& worker = workers[static_cast<std::size_t>(c)];
        PhaseStats& stats = worker.stats;
        worker.completed = 0;
        HttpConn conn;
        if (!conn.open(port)) {
          ++stats.sent;
          ++stats.failed;
          return;
        }
        // Requests in flight, oldest first: the sampled ones carry their
        // request bytes for the oracle.
        std::deque<std::optional<std::string>> in_flight;
        std::string train;
        std::string wire;
        const auto send = [&](int n) {
          train.clear();
          for (int k = 0; k < n; ++k) {
            const ReadRequest& request = pool[worker.next];
            worker.next = (worker.next + 1) % pool.size();
            ++worker.count;
            if (sample_every > 0 && stats.samples.size() < kMaxSamples &&
                worker.count % static_cast<std::uint64_t>(sample_every) ==
                    0) {
              in_flight.emplace_back(make_get(
                  request.target,
                  sample_id(worker.count * 16 + static_cast<std::uint64_t>(c))));
              train += *in_flight.back();
            } else {
              in_flight.emplace_back();
              train += request.bytes;
            }
          }
          stats.sent += static_cast<std::uint64_t>(n);
          return conn.send_all(train);
        };
        const auto receive = [&] {
          std::optional<std::string> sampled = std::move(in_flight.front());
          in_flight.pop_front();
          std::size_t bytes = 0;
          const int status = conn.read_response(sampled ? &wire : nullptr, &bytes);
          if (status < 0) {
            ++stats.failed;  // closed connection or broken framing
            return false;
          }
          if (status == 200) {
            ++stats.succeeded;
            stats.response_bytes += bytes;
          } else {
            ++stats.failed;
          }
          if (sampled && stats.samples.size() < kMaxSamples) {
            stats.samples.emplace_back(std::move(*sampled), wire);
          }
          return true;
        };
        // Pipelined connections refill in halves, so between depth/2 and
        // depth requests are always outstanding.
        const int refill = depth == 1 ? 1 : depth / 2;
        std::this_thread::sleep_until(start);
        bool ok = send(depth);
        while (ok && Clock::now() < end) {
          const Clock::time_point sent = Clock::now();
          for (int k = 0; ok && k < refill; ++k) ok = receive();
          const Clock::time_point done = Clock::now();
          if (ok && done <= end) {
            worker.completed += static_cast<std::uint64_t>(refill);
            if (depth == 1) {
              worker.latency_us.push_back(ms_between(sent, done) * 1000.0);
            }
          }
          if (ok && done < end) ok = send(refill);
        }
        while (ok && !in_flight.empty()) ok = receive();
        stats.failed += in_flight.size();  // lost with a broken connection
      });
    }
    for (auto& thread : threads) thread.join();
    std::uint64_t completed = 0;
    for (auto& worker : workers) {
      completed += worker.completed;
      latency_us.insert(latency_us.end(), worker.latency_us.begin(),
                        worker.latency_us.end());
      worker.latency_us.clear();
    }
    total.add_slice(latency_us, static_cast<double>(completed) /
                                    std::chrono::duration<double>(kSlice).count());
  }
  for (auto& worker : workers) total.merge(std::move(worker.stats));
  return total;
}

std::size_t check_samples(
    const serve::AsrelService& service,
    const std::vector<std::pair<std::string, std::string>>& samples) {
  std::size_t mismatches = 0;
  for (const auto& [request_bytes, wire] : samples) {
    serve::RequestAssembler assembler{16 * 1024};
    assembler.feed(request_bytes.data(), request_bytes.size());
    serve::HttpRequest request;
    if (assembler.next(&request) != serve::AssemblerStatus::kRequest) {
      ++mismatches;
      continue;
    }
    serve::HttpResponse response = service.handle(request);
    response.headers.emplace_back("X-Request-Id",
                                  obs::format_request_id(request.request_id));
    if (serve::render_http_response(response, request.keep_alive) != wire) {
      ++mismatches;
    }
  }
  return mismatches;
}

double add_handle_metrics(Result& result) {
  const SpanLog& log = SpanLog::instance();
  std::vector<double> all;
  const std::pair<const char*, const char*> routes[] = {
      {"serve.handle.rel", "serve.handle_rel_us"},
      {"serve.handle.as", "serve.handle_as_us"},
      {"serve.handle.report", "serve.handle_report_us"}};
  for (const auto& [span, metric] : routes) {
    std::vector<double> us = log.durations_ms(span);
    for (double& v : us) v *= 1000.0;
    const Summary summary = summarize(us, 0.99);
    result.note_summary(metric, summary, "us");
    result.add(metric, summary.p50, "us");
    all.insert(all.end(), us.begin(), us.end());
  }
  return summarize(std::move(all), 0.99).p50;
}

double engine_rel_ns(const serve::QueryEngine& engine,
                     const std::vector<ReadRequest>& pool) {
  std::vector<std::pair<asn::Asn, asn::Asn>> pairs;
  for (const auto& request : pool) {
    if (request.route == Route::kRel) {
      pairs.emplace_back(asn::Asn{request.a}, asn::Asn{request.b});
    }
  }
  if (pairs.empty()) return 0.0;
  constexpr std::size_t kCalls = 200000;
  std::size_t known = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const auto& [a, b] = pairs[i % pairs.size()];
    known += engine.rel(a, b).known() ? 1 : 0;
  }
  const double ns = ms_between(start, Clock::now()) * 1e6 /
                    static_cast<double>(kCalls);
  return known > 0 ? ns : 0.0;
}

}  // namespace perfbench
