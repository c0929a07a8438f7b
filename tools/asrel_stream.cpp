// asrel_stream — offline driver for the streaming pipeline.
//
//   asrel_stream --as-count N --seed S --events N [--churn-seed S]
//                [--batch K] [--threads T] [--emit-churn FILE]
//                [--save FILE] [--verify]
//       Bootstrap a streaming session, generate a seeded churn feed, apply
//       it in batches of K events (publishing an epoch per batch), and
//       report per-event/per-epoch timings plus incremental-vs-full cost.
//       --save writes the final epoch as a flat (v3) snapshot file, the
//       one asrel_serve --snapshot serves.
//
//   asrel_stream --as-count N --seed S --replay FILE [--batch K] ...
//       Same, but the events come from a replay file (see
//       src/stream/churn.hpp for the line format).
//
// --verify byte-compares every published epoch against a from-scratch
// rebuild of the same world — the invariant the metamorphic suite pins —
// and exits nonzero on the first divergence.
//
// The epoch loop is stream::LiveRun, the one asrel_serve's live mode
// runs. Resilience flags (DESIGN.md §14): --checkpoint-dir DIR resumes
// from the newest valid checkpoint there (falling back down the recovery
// ladder) and persists a checkpoint every --checkpoint-every epochs plus
// one on completion; --watchdog-every M runs the divergence watchdog
// every M epochs; --queue-cap/--queue-policy bound the ingest queue (a
// feeder thread pushes, the apply loop pops), so shed/coalesce semantics
// are exercisable offline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "io/flat_snapshot.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "stream/churn.hpp"
#include "stream/live_run.hpp"

namespace {

using namespace asrel;

struct Args {
  int as_count = 2500;
  std::uint64_t seed = 42;
  int threads = 0;
  stream::LiveConfig live;  ///< the feed, queue and cadence flags
  std::string emit_churn;
  std::string save;
  bool verify = false;
  int log_stderr = -1;    ///< stderr log sink level; -1 = off
  std::string crash_dir;  ///< arm the crash flight recorder here
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  asrel_stream --as-count N --seed S --events N [--churn-seed S]\n"
      "               [--batch K] [--threads T] [--emit-churn FILE]\n"
      "               [--save FILE] [--verify]\n"
      "               [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "               [--watchdog-every M] [--queue-cap N]\n"
      "               [--queue-policy block|shed|coalesce]\n"
      "               [--log-stderr debug|info|warn|error] [--crash-dir DIR]\n"
      "  asrel_stream --as-count N --seed S --replay FILE [--batch K] ...\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--verify") {
      args.verify = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (stream::parse_live_flag(flag, value, args.live)) continue;
    if (flag == "--as-count") {
      args.as_count = std::atoi(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--events") {
      args.live.events = std::atoi(value);
    } else if (flag == "--batch") {
      args.live.batch = std::atoi(value);
    } else if (flag == "--threads") {
      args.threads = std::atoi(value);
    } else if (flag == "--emit-churn") {
      args.emit_churn = value;
    } else if (flag == "--save") {
      args.save = value;
    } else if (flag == "--queue-policy") {
      const auto policy = stream::parse_queue_policy(value);
      if (!policy) {
        std::fprintf(stderr, "unknown queue policy: %s\n", value);
        return std::nullopt;
      }
      args.live.queue_policy = *policy;
    } else if (flag == "--log-stderr") {
      const std::string_view name{value};
      args.log_stderr = name == "debug"  ? 0
                        : name == "info" ? 1
                        : name == "warn" ? 2
                        : name == "error" ? 3
                        : name == "off"   ? -1
                                          : -2;
      if (args.log_stderr == -2) {
        std::fprintf(stderr, "unknown log level: %s\n", value);
        return std::nullopt;
      }
    } else if (flag == "--crash-dir") {
      args.crash_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i - 1]);
      return std::nullopt;
    }
  }
  if ((args.live.events > 0) == !args.live.replay.empty()) return std::nullopt;
  args.live.params.topology.as_count = args.as_count;
  args.live.params.topology.seed = args.seed;
  args.live.params.threads =
      static_cast<unsigned>(args.threads < 0 ? 0 : args.threads);
  return args;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return usage();

  obs::EventLog::instance().set_stderr_level(args->log_stderr);
  auto& flight = obs::FlightRecorder::instance();
  if (!args->crash_dir.empty()) {
    obs::FlightRecorder::Config config;
    config.crash_dir = args->crash_dir;
    config.tool = "asrel_stream";
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

  std::fprintf(stderr, "bootstrapping session (%d ASes, seed %llu)...\n",
               args->as_count, static_cast<unsigned long long>(args->seed));
  // Same shape as the live server: the driver's feeder thread pushes the
  // feed into the bounded queue and each epoch pops up to --batch events.
  // Under kShed/kCoalesce a slow consumer loses or merges events exactly
  // as a live run would; the verify oracle still holds because it
  // compares the maintained snapshot against a rebuild of whatever was
  // actually applied.
  const auto bootstrap_started = std::chrono::steady_clock::now();
  std::optional<stream::LiveRun> run;
  try {
    run.emplace(args->live);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double bootstrap_ms = ms_since(bootstrap_started);
  if (!args->live.checkpoint_dir.empty()) {
    std::fprintf(stderr, "recovery: %s (%zu checkpoint(s) rejected)\n",
                 run->recovery().detail.c_str(),
                 run->recovery().checkpoints_rejected);
  }
  std::fprintf(stderr, "bootstrap (full pipeline) took %.1f ms\n",
               bootstrap_ms);
  const auto& events = run->feed();
  if (!args->live.replay.empty()) {
    std::fprintf(stderr, "replaying %zu events from %s\n", events.size(),
                 args->live.replay.c_str());
  } else {
    std::fprintf(stderr, "generated %zu events (churn seed %llu)\n",
                 events.size(),
                 static_cast<unsigned long long>(args->live.churn_seed));
  }
  if (!args->emit_churn.empty()) {
    std::ofstream out{args->emit_churn};
    out << stream::to_churn_text(events);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args->emit_churn.c_str());
      return 1;
    }
    std::fprintf(stderr, "churn feed written to %s\n",
                 args->emit_churn.c_str());
  }
  if (run->applied_through() != 0) {
    std::fprintf(stderr, "resuming feed at event %llu\n",
                 static_cast<unsigned long long>(run->applied_through()));
  }

  double apply_ms = 0;
  double publish_ms = 0;
  while (true) {
    const auto apply_started = std::chrono::steady_clock::now();
    const auto batch = run->apply_batch(/*wait=*/true);
    apply_ms += ms_since(apply_started);
    if (batch.events == 0) break;
    if (batch.restored) {
      std::fprintf(stderr, "apply failed, session restored: %s\n",
                   run->recovery().detail.c_str());
    }

    // Deterministic stamps (built == epoch) so --verify can compare and a
    // resumed run publishes the same bytes a never-crashed one would.
    stream::StreamSession& session = run->session();  // a restore replaces it
    const std::uint64_t built = session.epoch() + 1;
    const auto publish_started = std::chrono::steady_clock::now();
    const io::Snapshot& snapshot = session.publish(built);
    publish_ms += ms_since(publish_started);
    if (flight.armed()) {
      // One refresh per published epoch: the black box always carries the
      // epoch being served plus whatever the log/trace rings saw since.
      flight.set_epoch(session.epoch());
      flight.refresh();
    }

    if (args->verify) {
      const std::string incremental = io::to_snapshot_bytes(snapshot);
      const std::string reference =
          io::to_snapshot_bytes(session.reference_snapshot(built));
      if (incremental != reference) {
        std::fprintf(stderr,
                     "VERIFY FAILED: epoch %llu diverged from the "
                     "from-scratch rebuild at feed position %llu\n",
                     static_cast<unsigned long long>(session.epoch()),
                     static_cast<unsigned long long>(run->applied_through()));
        return 1;
      }
      std::fprintf(stderr, "epoch %llu verified (%zu bytes)\n",
                   static_cast<unsigned long long>(session.epoch()),
                   incremental.size());
    }
    const auto cadence = run->after_publish();
    if (cadence.watchdog.diverged) {
      std::fprintf(stderr,
                   "watchdog: divergence in section '%s' at epoch %llu "
                   "(%s)\n",
                   cadence.watchdog.first_diff_section.c_str(),
                   static_cast<unsigned long long>(session.epoch()),
                   cadence.watchdog.healed ? "healed" : "NOT healed");
    }
    if (!cadence.checkpoint_error.empty()) {
      std::fprintf(stderr, "warning: checkpoint write failed: %s\n",
                   cadence.checkpoint_error.c_str());
    }
  }
  // Graceful drain: persist the final state so a restart resumes past the
  // end of the feed instead of replaying the tail.
  std::string error;
  if (!run->finish(&error)) {
    std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                 error.c_str());
  }

  const auto& stats = run->session().stats();
  const auto& queue = run->queue();
  const auto queue_stats = queue.stats();
  const auto processed = static_cast<std::size_t>(queue_stats.popped);
  if (queue_stats.shed != 0 || queue_stats.coalesced != 0 ||
      queue_stats.blocked != 0) {
    std::fprintf(stderr,
                 "queue (%s, cap %zu): %llu pushed, %llu popped, "
                 "%llu shed, %llu coalesced, %llu blocked\n",
                 std::string{to_string(queue.policy())}.c_str(), queue.cap(),
                 static_cast<unsigned long long>(queue_stats.pushed),
                 static_cast<unsigned long long>(queue_stats.popped),
                 static_cast<unsigned long long>(queue_stats.shed),
                 static_cast<unsigned long long>(queue_stats.coalesced),
                 static_cast<unsigned long long>(queue_stats.blocked));
  }
  std::fprintf(
      stderr,
      "processed %zu events (%llu applied, %llu no-ops) across %llu "
      "epochs\n"
      "origins re-converged: %llu, proven clean: %llu\n"
      "apply total %.1f ms (%.3f ms/event), publish total %.1f ms\n",
      processed, static_cast<unsigned long long>(stats.events_applied),
      static_cast<unsigned long long>(stats.events_noop),
      static_cast<unsigned long long>(stats.epochs_published),
      static_cast<unsigned long long>(stats.origins_redone),
      static_cast<unsigned long long>(stats.origins_skipped), apply_ms,
      processed == 0 ? 0.0 : apply_ms / static_cast<double>(processed),
      publish_ms);
  if (processed != 0) {
    const double per_event =
        (apply_ms + publish_ms) / static_cast<double>(processed);
    std::fprintf(stderr,
                 "incremental cost %.3f ms/event vs %.1f ms full pipeline "
                 "(%.1fx cheaper)\n",
                 per_event, bootstrap_ms,
                 per_event == 0 ? 0.0 : bootstrap_ms / per_event);
  }

  if (!args->save.empty()) {
    if (!io::save_flat_snapshot_file(run->session().snapshot(), args->save,
                                     &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "final snapshot (epoch %llu) saved to %s\n",
                 static_cast<unsigned long long>(run->session().epoch()),
                 args->save.c_str());
  }
  if (args->verify) std::fprintf(stderr, "all epochs verified\n");
  return 0;
}
