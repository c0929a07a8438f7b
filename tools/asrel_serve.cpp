// asrel_serve — always-on query daemon over a precomputed snapshot.
//
//   asrel_serve --snapshot FILE [--port P] [--threads N]
//       Serve a flat (v3) snapshot file by mmap: the first open verifies
//       its checksum, point lookups read the mapped image directly, and
//       SIGHUP / POST /reloadz swap epochs with a structural open
//       (microseconds, no parse). Produce the file with --save.
//
//   asrel_serve --generate [--as-count N] [--seed S] [--save FILE]
//               [--port P] [--threads N]
//       Run the batch pipeline once (minutes at paper scale), optionally
//       persist the snapshot, then serve it.
//
//   asrel_serve --generate --stream-events N [--stream-interval-ms MS]
//               [--stream-batch K] [--churn-seed S] [--replay FILE] ...
//       Live mode: bootstrap a streaming session, then apply N generated
//       (or replayed) churn events in batches of K every MS milliseconds,
//       publishing a fresh epoch (atomic in-memory swap, zero dropped
//       requests) after each batch. When --save is set, each epoch is also
//       written to the file crash-safely, so SIGHUP reloads pick up the
//       latest epoch.
//
// Resilience (DESIGN.md §14, live mode only):
//   --checkpoint-dir DIR    resume from the newest valid checkpoint there
//                           (ladder: newest -> previous -> cold bootstrap)
//                           and persist one every --checkpoint-every epochs
//                           plus one on graceful drain
//   --watchdog-every M      byte-audit the served snapshot against a
//                           from-scratch rebuild every M epochs; on
//                           divergence, self-heal and republish
//   --queue-cap N           bounded ingest queue between the churn feeder
//   --queue-policy P        and the apply loop: block | shed | coalesce
//
// Admission:
//   --max-connections N     open-connection cap; beyond it, 503 + Retry-After
//
// Operations:
//   SIGHUP          hot-reload the snapshot file (zero downtime; in-flight
//                   requests finish on the old epoch)
//   POST /reloadz   same swap over HTTP; answers the new epoch or the error
//   SIGINT/SIGTERM  graceful drain: stop accepting, answer connections
//                   not yet accepted with 503, finish in-flight
//                   connections within --drain-ms, then exit
//
// Observability:
//   --log-stderr LEVEL   mirror structured log events (JSON lines) at
//                        LEVEL and above to stderr (debug|info|warn|error;
//                        default off — the in-memory ring behind /logz is
//                        always on)
//   --crash-dir DIR      arm the crash flight recorder: on SIGSEGV /
//                        SIGABRT / SIGBUS write DIR/crash-<pid>.json (build
//                        info, served epoch, recent log events and spans,
//                        metrics snapshot), then re-raise
//
// Endpoints: /rel /as /links /report/{regional,topological} /report/table
// /snapshot /healthz /statsz /metricsz /tracez /logz /slowz — see
// src/serve/service.hpp.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/http_server.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "stream/ingest.hpp"
#include "stream/live_run.hpp"

namespace {

using namespace asrel;

struct Args {
  std::string snapshot;  ///< serve this mmap'd flat (v3) file
  bool generate = false;
  int as_count = 12000;
  std::uint64_t seed = 42;
  std::string save;  ///< write each built or published epoch here
  int port = 8642;
  int threads = 4;
  int timeout_ms = 5000;
  int deadline_ms = 10000;
  int drain_ms = 5000;
  int max_connections = 256;  ///< open-connection cap (503 shed beyond it)
  bool trace = false;      ///< record server spans (served via /tracez)
  int log_stderr = -1;     ///< stderr log sink level; -1 = off
  std::string crash_dir;   ///< arm the crash flight recorder here

  // Live mode (--generate only): nonzero --stream-events or --replay
  // enables it. --stream-batch defaults to 10 (set in parse_args).
  stream::LiveConfig live;
  int stream_interval_ms = 1000;
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  asrel_serve --snapshot FILE [--port P] [--threads N]\n"
      "              [--timeout-ms MS] [--deadline-ms MS] [--drain-ms MS]\n"
      "              [--max-connections N] [--trace]\n"
      "              [--log-stderr debug|info|warn|error] [--crash-dir DIR]\n"
      "  asrel_serve --generate [--as-count N] [--seed S] [--save FILE]\n"
      "              [--port P] [--threads N]\n"
      "  asrel_serve --generate --stream-events N [--stream-interval-ms MS]\n"
      "              [--stream-batch K] [--churn-seed S] [--replay FILE]\n"
      "              [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "              [--watchdog-every M] [--queue-cap N]\n"
      "              [--queue-policy block|shed|coalesce] ...\n"
      "signals: SIGHUP = hot snapshot reload, SIGINT/SIGTERM = drain+exit\n");
  return 2;
}

/// Maps a level name to the EventLog stderr threshold; -2 = unknown.
int parse_log_level(std::string_view name) {
  if (name == "debug") return 0;
  if (name == "info") return 1;
  if (name == "warn") return 2;
  if (name == "error") return 3;
  if (name == "off") return -1;
  return -2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  args.live.batch = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--generate") {
      args.generate = true;
      continue;
    }
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (stream::parse_live_flag(flag, value, args.live)) continue;
    if (flag == "--snapshot") {
      args.snapshot = value;
    } else if (flag == "--as-count") {
      args.as_count = std::atoi(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--save") {
      args.save = value;
    } else if (flag == "--port") {
      args.port = std::atoi(value);
    } else if (flag == "--threads") {
      args.threads = std::atoi(value);
    } else if (flag == "--timeout-ms") {
      args.timeout_ms = std::atoi(value);
    } else if (flag == "--deadline-ms") {
      args.deadline_ms = std::atoi(value);
    } else if (flag == "--drain-ms") {
      args.drain_ms = std::atoi(value);
    } else if (flag == "--max-connections") {
      args.max_connections = std::atoi(value);
    } else if (flag == "--log-stderr") {
      args.log_stderr = parse_log_level(value);
      if (args.log_stderr == -2) {
        std::fprintf(stderr, "unknown log level: %s\n", value);
        return std::nullopt;
      }
    } else if (flag == "--crash-dir") {
      args.crash_dir = value;
    } else if (flag == "--stream-events") {
      args.live.events = std::atoi(value);
    } else if (flag == "--stream-interval-ms") {
      args.stream_interval_ms = std::atoi(value);
    } else if (flag == "--stream-batch") {
      args.live.batch = std::atoi(value);
    } else if (flag == "--queue-policy") {
      const auto policy = stream::parse_queue_policy(value);
      if (!policy) {
        std::fprintf(stderr, "unknown queue policy: %s\n", value);
        return std::nullopt;
      }
      args.live.queue_policy = *policy;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i - 1]);
      return std::nullopt;
    }
  }
  // Exactly one source: --snapshot or --generate.
  if (args.snapshot.empty() == !args.generate) return std::nullopt;
  const bool has_events = args.live.events > 0;
  if ((has_events || !args.live.replay.empty()) && !args.generate) {
    return std::nullopt;
  }
  if (has_events && !args.live.replay.empty()) return std::nullopt;
  args.live.params.topology.as_count = args.as_count;
  args.live.params.topology.seed = args.seed;
  return args;
}

std::atomic<bool> g_shutdown{false};
serve::EngineHub* g_hub = nullptr;  ///< for the SIGHUP handler only

void on_shutdown_signal(int) { g_shutdown.store(true); }

// Async-signal-safe: just flips an atomic flag; the main loop reloads.
void on_sighup(int) {
  if (g_hub != nullptr) g_hub->request_reload();
}

/// /statsz's "stream" object for the live run, rendered on the main loop
/// after every epoch; HTTP workers read the last rendering through
/// AsrelService::set_stream_stats.
std::string stream_status_json(const stream::LiveRun& run,
                               const std::string& last_diff_section) {
  const auto& recovery = run.recovery();
  const auto& session = run.session().stats();
  const auto& queue = run.queue();
  const auto queue_stats = queue.stats();
  serve::JsonWriter json;
  json.begin_object();
  json.key("recovery").begin_object();
  json.field("resumed_epoch", recovery.resumed_epoch);
  json.field("checkpoints_rejected", recovery.checkpoints_rejected);
  json.field("in_process_restores", recovery.in_process_restores);
  json.field("detail", recovery.detail);
  json.end_object();
  json.key("checkpoint").begin_object();
  json.field("written", run.checkpoints_written());
  json.field("feed_position", run.applied_through());
  json.end_object();
  json.key("watchdog").begin_object();
  json.field("divergences", session.divergences);
  json.field("heals", session.heals);
  if (!last_diff_section.empty()) {
    json.field("last_diff_section", last_diff_section);
  }
  json.end_object();
  json.key("events").begin_object();
  json.field("applied", session.events_applied);
  json.field("noop", session.events_noop);
  json.field("origins_redone", session.origins_redone);
  json.field("origins_skipped", session.origins_skipped);
  json.field("epochs_published", session.epochs_published);
  json.end_object();
  json.key("queue").begin_object();
  json.field("policy", std::string{to_string(queue.policy())});
  json.field("cap", queue.cap());
  json.field("depth", queue.depth());
  json.field("pushed", queue_stats.pushed);
  json.field("popped", queue_stats.popped);
  json.field("shed", queue_stats.shed);
  json.field("coalesced", queue_stats.coalesced);
  json.field("blocked", queue_stats.blocked);
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return usage();

  obs::EventLog::instance().set_stderr_level(args->log_stderr);
  auto& flight = obs::FlightRecorder::instance();
  if (!args->crash_dir.empty()) {
    // Armed before the (potentially minutes-long) bootstrap so a crash
    // during generation still leaves a black box; the epoch reads 0 until
    // the first snapshot is served.
    obs::FlightRecorder::Config config;
    config.crash_dir = args->crash_dir;
    config.tool = "asrel_serve";
    config.build_info = __DATE__ " " __TIME__;
    std::string arm_error;
    if (!flight.arm(config, &arm_error)) {
      std::fprintf(stderr, "error arming crash recorder: %s\n",
                   arm_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "crash recorder armed: %s\n",
                 flight.dump_path().c_str());
  }

  io::Snapshot snapshot;
  std::optional<stream::LiveRun> live;
  std::mutex stream_status_mutex;
  std::string stream_status;  ///< guarded by stream_status_mutex
  if (args->live.events > 0 || !args->live.replay.empty()) {
    std::fprintf(stderr,
                 "bootstrapping streaming session (%d ASes, seed %llu)...\n",
                 args->as_count,
                 static_cast<unsigned long long>(args->seed));
    const auto started = std::chrono::steady_clock::now();
    try {
      live.emplace(args->live);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (!args->live.checkpoint_dir.empty()) {
      std::fprintf(stderr, "recovery: %s (%zu checkpoint(s) rejected)\n",
                   live->recovery().detail.c_str(),
                   live->recovery().checkpoints_rejected);
    }
    stream_status = stream_status_json(*live, {});
    snapshot = live->session().snapshot();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    std::fprintf(stderr,
                 "bootstrap took %lld ms; %zu churn events queued "
                 "(batch %d every %d ms)\n",
                 static_cast<long long>(elapsed.count()), live->feed().size(),
                 args->live.batch, args->stream_interval_ms);
  } else if (args->generate) {
    std::fprintf(stderr, "building scenario (%d ASes, seed %llu)...\n",
                 args->as_count,
                 static_cast<unsigned long long>(args->seed));
    const auto started = std::chrono::steady_clock::now();
    core::ScenarioParams params;
    params.topology.as_count = args->as_count;
    params.topology.seed = args->seed;
    const auto scenario = core::Scenario::build(params);
    std::fprintf(stderr, "running inference + audit...\n");
    snapshot = core::build_snapshot(*scenario);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    std::fprintf(stderr, "batch pipeline took %lld ms\n",
                 static_cast<long long>(elapsed.count()));
  }
  if (args->generate && !args->save.empty()) {
    std::string error;
    if (!io::save_flat_snapshot_file(snapshot, args->save, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "saved snapshot to %s\n", args->save.c_str());
  }

  // Reloads re-read the file the daemon serves from: --snapshot when
  // loading, --save when generating. Without a path, reloads fail closed.
  const std::string reload_path =
      !args->snapshot.empty() ? args->snapshot : args->save;
  std::shared_ptr<const serve::QueryEngine> initial_engine;
  if (!args->snapshot.empty()) {
    const auto started = std::chrono::steady_clock::now();
    std::string error;
    // The first open verifies the checksum; reloads trust the atomic
    // rename protocol and stay structural (microseconds).
    const auto view = io::FlatView::open_file(args->snapshot, &error,
                                              /*deep_verify=*/true);
    if (view == nullptr) {
      std::fprintf(stderr, "error opening %s: %s\n", args->snapshot.c_str(),
                   error.c_str());
      return 1;
    }
    initial_engine = std::make_shared<const serve::QueryEngine>(view);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - started);
    std::fprintf(stderr, "mapped snapshot in %lld us\n",
                 static_cast<long long>(elapsed.count()));
  } else {
    initial_engine = std::make_shared<const serve::QueryEngine>(snapshot);
    snapshot = {};  // the engine serves its own flat copy
  }
  serve::EngineHub::EngineLoader loader;
  if (!reload_path.empty()) loader = serve::flat_file_loader(reload_path);
  std::fprintf(stderr,
               "snapshot: %zu ASes, %zu edges, %zu links, %zu labels\n",
               initial_engine->num_ases(), initial_engine->num_edges(),
               initial_engine->num_links(), initial_engine->num_validation());
  const auto hub = std::make_shared<serve::EngineHub>(
      std::move(initial_engine), std::move(loader));
  serve::AsrelService service{hub};
  if (live) {
    service.set_stream_stats([&] {
      std::lock_guard lock{stream_status_mutex};
      return stream_status;
    });
  }

  serve::HttpServerOptions options;
  options.port = static_cast<std::uint16_t>(args->port);
  options.worker_threads = args->threads;
  options.request_timeout_ms = args->timeout_ms;
  options.request_deadline_ms = args->deadline_ms;
  options.drain_deadline_ms = args->drain_ms;
  options.max_connections = static_cast<std::size_t>(
      args->max_connections < 1 ? 1 : args->max_connections);
  options.stats_supplement = [&service] { return service.stats_json(); };
  options.metrics_routes = serve::AsrelService::metric_routes();
  options.metrics_supplement =
      [&service](std::vector<obs::MetricSnapshot>& out) {
        service.collect_metrics(out);
      };
  options.epoch_supplier = [hub] { return hub->epoch(); };
  if (args->trace) obs::Tracer::instance().set_enabled(true);
  serve::HttpServer server{
      [&service](const serve::HttpRequest& request) {
        return service.handle(request);
      },
      options};

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_hub = hub.get();
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGHUP, on_sighup);
  std::fprintf(stderr,
               "serving on port %u with %d workers "
               "(SIGHUP reloads, Ctrl-C drains)\n",
               server.port(), args->threads);

  // Writes an epoch's bytes to --save, crash-safely (tmp+rename), so a
  // torn write never clobbers the last good file and SIGHUP reloads stay
  // safe.
  const auto save_epoch = [&](const io::Snapshot& epoch, const char* what) {
    if (args->save.empty()) return;
    std::string save_error;
    if (!io::save_flat_snapshot_file(epoch, args->save, &save_error)) {
      std::fprintf(stderr, "%s write failed (still serving): %s\n", what,
                   save_error.c_str());
    }
  };

  // Backpressured ingest: the driver's feeder thread pushes the churn feed
  // into a bounded queue; this loop applies up to --stream-batch queued
  // events per interval. The gap between them is where a real
  // deployment's collector feed would outrun re-convergence.
  bool feed_drained = !live;
  std::string last_diff_section;
  auto next_batch_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(args->stream_interval_ms);
  auto next_flight_refresh = std::chrono::steady_clock::now();
  while (!g_shutdown.load()) {
    if (flight.armed() &&
        std::chrono::steady_clock::now() >= next_flight_refresh) {
      flight.set_epoch(live ? live->session().epoch() : hub->epoch());
      flight.refresh();
      next_flight_refresh = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(1000);
    }
    if (hub->take_reload_request()) {
      const auto result = hub->reload();
      if (result.ok) {
        std::fprintf(stderr, "reloaded %s (epoch %llu)\n",
                     reload_path.c_str(),
                     static_cast<unsigned long long>(result.epoch));
      } else {
        std::fprintf(stderr,
                     "reload failed, still serving epoch %llu: %s\n",
                     static_cast<unsigned long long>(result.epoch),
                     result.error.c_str());
      }
    }
    if (!feed_drained && std::chrono::steady_clock::now() >= next_batch_at &&
        live->queue().depth() > 0) {
      const auto batch = live->apply_batch(/*wait=*/false);
      if (batch.restored) {
        std::fprintf(stderr, "stream: apply failed, session restored: %s\n",
                     live->recovery().detail.c_str());
      }
      const std::uint64_t now_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      const io::Snapshot& published = live->session().publish(now_ms);
      save_epoch(published, "epoch");
      hub->publish(published);
      std::fprintf(
          stderr,
          "stream: epoch %llu published (%llu/%zu events, "
          "%zu origins re-converged)\n",
          static_cast<unsigned long long>(published.meta.epoch),
          static_cast<unsigned long long>(live->applied_through()),
          live->feed().size(), batch.redone);

      const auto cadence = live->after_publish();
      if (cadence.watchdog.diverged) {
        last_diff_section = cadence.watchdog.first_diff_section;
        std::fprintf(stderr,
                     "stream: watchdog divergence in section '%s' (%s)\n",
                     last_diff_section.c_str(),
                     cadence.watchdog.healed ? "healed, republishing"
                                             : "NOT healed");
        if (cadence.watchdog.healed) {
          hub->publish(live->session().snapshot());
          save_epoch(live->session().snapshot(), "healed epoch");
        }
      }
      if (!cadence.checkpoint_error.empty()) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     cadence.checkpoint_error.c_str());
      }
      {
        std::string status = stream_status_json(*live, last_diff_section);
        std::lock_guard lock{stream_status_mutex};
        stream_status = std::move(status);
      }
      next_batch_at = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(args->stream_interval_ms);
    }
    if (!feed_drained && live->drained()) {
      feed_drained = true;
      std::fprintf(stderr, "stream: churn feed drained, serving on\n");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(feed_drained ? 100 : 20));
  }
  if (live) {
    // Drain-aware shutdown: stop intake, let the feeder exit, and persist
    // a final checkpoint so the restart resumes exactly here.
    std::string ckpt_error;
    if (!live->finish(&ckpt_error)) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   ckpt_error.c_str());
    } else if (!args->live.checkpoint_dir.empty()) {
      std::fprintf(stderr, "stream: final checkpoint at feed %llu\n",
                   static_cast<unsigned long long>(live->applied_through()));
    }
  }
  std::fprintf(stderr, "draining (deadline %d ms)...\n", args->drain_ms);
  const serve::DrainReport drained = server.drain();
  g_hub = nullptr;
  const auto stats = server.stats();
  std::fprintf(stderr,
               "served %llu requests (%llu connections, %llu shed); "
               "drain: %llu finished, %llu aborted\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.overload_rejected),
               static_cast<unsigned long long>(drained.drained),
               static_cast<unsigned long long>(drained.aborted));
  return 0;
}
