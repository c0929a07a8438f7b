#include "serve/engine_hub.hpp"

#include <chrono>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace asrel::serve {

namespace {

/// Reload telemetry lives in the global registry: a process hosts one
/// logical snapshot lineage even when tests spin up several hubs.
struct ReloadMetrics {
  obs::Counter& ok;
  obs::Counter& failed;
  obs::Histogram& duration_us;

  static ReloadMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ReloadMetrics metrics{
        reg.counter("asrel_reloads_total{result=\"ok\"}",
                    "Snapshot hot reloads by outcome"),
        reg.counter("asrel_reloads_total{result=\"failed\"}"),
        reg.histogram("asrel_reload_duration_us", obs::stage_buckets_us(),
                      "Wall time per reload attempt (microseconds)"),
    };
    return metrics;
  }
};

}  // namespace

EngineHub::EngineHub(std::shared_ptr<const QueryEngine> initial,
                     EngineLoader loader)
    : engine_(std::move(initial)), loader_(std::move(loader)) {}

EngineHub::ReloadResult EngineHub::reload() {
  std::lock_guard<std::mutex> lock{reload_mutex_};
  ReloadMetrics& metrics = ReloadMetrics::get();
  const auto reload_started = std::chrono::steady_clock::now();
  const auto observe_duration = [&] {
    metrics.duration_us.observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - reload_started)
            .count()));
  };
  static obs::LogSite reload_ok_site{"serve.hub", "reload_ok", 0};
  static obs::LogSite reload_failed_site{"serve.hub", "reload_failed", 0};
  ReloadResult result;
  const auto fail = [&](std::string message) {
    ++reloads_failed_;
    metrics.failed.inc();
    observe_duration();
    obs::log_event(reload_failed_site, obs::LogLevel::kError, 0,
                   {{"epoch", epoch()}, {"error", message}});
    last_error_ = message;
    result.ok = false;
    result.epoch = epoch();
    result.error = std::move(message);
    return result;
  };

  if (!loader_) {
    return fail("no snapshot loader configured (static deployment)");
  }
  // The loader builds the next engine on the reloading thread, while
  // every worker keeps serving the old epoch.
  std::string error;
  std::shared_ptr<const QueryEngine> next = loader_(&error);
  if (next == nullptr) {
    return fail(error.empty() ? "engine loader failed" : error);
  }
  engine_.exchange(std::move(next));
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;

  ++reloads_ok_;
  metrics.ok.inc();
  observe_duration();
  obs::log_event(
      reload_ok_site, obs::LogLevel::kInfo, 0,
      {{"epoch", epoch},
       {"duration_us",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - reload_started)
                .count())}});
  last_error_.clear();
  result.ok = true;
  result.epoch = epoch;
  return result;
}

EngineHub::ReloadResult EngineHub::publish(const io::Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock{reload_mutex_};
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& publishes_total = registry.counter(
      "asrel_stream_publishes_total",
      "In-memory snapshot publications (streaming epochs)");
  // Encoding happens before the swap, on the publishing thread;
  // workers keep serving the previous epoch until the single store below.
  auto next = std::make_shared<const QueryEngine>(snapshot);
  engine_.exchange(std::move(next));
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  ++publishes_;
  publishes_total.inc();
  // Rate-capped: streaming can publish many epochs per second, and the
  // interesting signal is that publication is happening at all, plus the
  // latest epoch number.
  static obs::LogSite publish_site{"serve.hub", "publish", 4};
  obs::log_event(publish_site, obs::LogLevel::kInfo, 0, {{"epoch", epoch}});
  ReloadResult result;
  result.ok = true;
  result.epoch = epoch;
  return result;
}

EngineHub::Stats EngineHub::stats() const {
  Stats stats;
  stats.epoch = epoch();
  // reload_mutex_ also guards the counters; stats() is cold (one /statsz
  // hit), so taking it here is fine.
  std::lock_guard<std::mutex> lock{reload_mutex_};
  stats.reloads_ok = reloads_ok_;
  stats.reloads_failed = reloads_failed_;
  stats.publishes = publishes_;
  stats.last_error = last_error_;
  return stats;
}

EngineHub::EngineLoader flat_file_loader(std::string path) {
  return [path = std::move(path)](std::string* error)
             -> std::shared_ptr<const QueryEngine> {
    auto view = io::FlatView::open_file(path, error, /*deep_verify=*/false);
    if (view == nullptr) return nullptr;
    return std::make_shared<const QueryEngine>(std::move(view));
  };
}

}  // namespace asrel::serve
