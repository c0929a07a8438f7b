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
// Resilience flags (DESIGN.md §14): --checkpoint-dir DIR resumes from the
// newest valid checkpoint there (falling back down the recovery ladder)
// and persists a checkpoint every --checkpoint-every epochs plus one on
// completion; --watchdog-every M runs the divergence watchdog every M
// epochs; --queue-cap/--queue-policy route the feed through the same
// bounded ingest queue the live server uses (a feeder thread pushes, the
// apply loop pops), so shed/coalesce semantics are exercisable offline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/flat_snapshot.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "stream/checkpoint.hpp"
#include "stream/churn.hpp"
#include "stream/ingest.hpp"
#include "stream/session.hpp"
#include "topology/generator.hpp"

namespace {

using namespace asrel;

struct Args {
  int as_count = 2500;
  std::uint64_t seed = 42;
  int events = 0;
  std::uint64_t churn_seed = 1;
  int batch = 20;
  int threads = 0;
  std::string replay;
  std::string emit_churn;
  std::string save;
  std::string checkpoint_dir;
  int checkpoint_every = 5;
  int watchdog_every = 0;
  int queue_cap = 1024;
  stream::QueuePolicy queue_policy = stream::QueuePolicy::kBlock;
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
    if (flag == "--as-count") {
      args.as_count = std::atoi(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--events") {
      args.events = std::atoi(value);
    } else if (flag == "--churn-seed") {
      args.churn_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--batch") {
      args.batch = std::atoi(value);
    } else if (flag == "--threads") {
      args.threads = std::atoi(value);
    } else if (flag == "--replay") {
      args.replay = value;
    } else if (flag == "--emit-churn") {
      args.emit_churn = value;
    } else if (flag == "--save") {
      args.save = value;
    } else if (flag == "--checkpoint-dir") {
      args.checkpoint_dir = value;
    } else if (flag == "--checkpoint-every") {
      args.checkpoint_every = std::atoi(value);
    } else if (flag == "--watchdog-every") {
      args.watchdog_every = std::atoi(value);
    } else if (flag == "--queue-cap") {
      args.queue_cap = std::atoi(value);
    } else if (flag == "--queue-policy") {
      const auto policy = stream::parse_queue_policy(value);
      if (!policy) {
        std::fprintf(stderr, "unknown queue policy: %s\n", value);
        return std::nullopt;
      }
      args.queue_policy = *policy;
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
  if (args.batch < 1) args.batch = 1;
  if (args.checkpoint_every < 1) args.checkpoint_every = 1;
  if (args.queue_cap < 1) args.queue_cap = 1;
  if ((args.events > 0) == !args.replay.empty()) return std::nullopt;
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
  core::ScenarioParams params;
  params.topology.as_count = args->as_count;
  params.topology.seed = args->seed;
  params.threads = static_cast<unsigned>(args->threads < 0 ? 0
                                                           : args->threads);
  const auto bootstrap_started = std::chrono::steady_clock::now();
  std::unique_ptr<stream::StreamSession> session;
  std::optional<stream::CheckpointDir> checkpoint_dir;
  std::uint64_t resume_from = 0;
  if (!args->checkpoint_dir.empty()) {
    checkpoint_dir.emplace(args->checkpoint_dir);
    auto outcome = stream::recover_session(params, *checkpoint_dir);
    session = std::move(outcome.session);
    resume_from = outcome.feed_position;
    std::fprintf(stderr, "recovery: %s (%zu checkpoint(s) rejected)\n",
                 outcome.detail.c_str(), outcome.checkpoints_rejected);
  } else {
    session = std::make_unique<stream::StreamSession>(params);
  }
  const double bootstrap_ms = ms_since(bootstrap_started);
  std::fprintf(stderr, "bootstrap (full pipeline) took %.1f ms\n",
               bootstrap_ms);

  std::vector<stream::ChurnEvent> events;
  if (!args->replay.empty()) {
    std::ifstream in{args->replay};
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", args->replay.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    events = stream::parse_churn_text(text.str(), &error);
    if (events.empty() && !error.empty()) {
      std::fprintf(stderr, "error parsing %s: %s\n", args->replay.c_str(),
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "replaying %zu events from %s\n", events.size(),
                 args->replay.c_str());
  } else if (checkpoint_dir) {
    // A resumed session's world already reflects churn; the feed must be
    // generated from the pristine world so it matches the original run's.
    const topo::World pristine = topo::generate(params.topology);
    events = stream::generate_churn(pristine, args->churn_seed,
                                    static_cast<std::size_t>(args->events));
    std::fprintf(stderr, "generated %zu events (churn seed %llu)\n",
                 events.size(),
                 static_cast<unsigned long long>(args->churn_seed));
  } else {
    events = stream::generate_churn(session->world(), args->churn_seed,
                                    static_cast<std::size_t>(args->events));
    std::fprintf(stderr, "generated %zu events (churn seed %llu)\n",
                 events.size(),
                 static_cast<unsigned long long>(args->churn_seed));
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

  double apply_ms = 0;
  double publish_ms = 0;
  // Deterministic stamps (built == epoch) so --verify can compare and a
  // resumed run publishes the same bytes a never-crashed one would.
  std::uint64_t built = session->epoch();
  std::uint64_t epochs_since_checkpoint = 0;
  if (resume_from > events.size()) resume_from = events.size();
  if (resume_from != 0) {
    std::fprintf(stderr, "resuming feed at event %llu\n",
                 static_cast<unsigned long long>(resume_from));
  }
  // Same shape as the live server: a feeder thread pushes the feed into
  // the bounded queue, the loop below pops up to --batch events per
  // epoch. Under kShed/kCoalesce a slow consumer loses or merges events
  // exactly as a live run would; the verify oracle still holds because
  // it compares the maintained snapshot against a rebuild of whatever
  // was actually applied.
  stream::EventQueue queue{static_cast<std::size_t>(args->queue_cap),
                           args->queue_policy};
  const stream::QueueFeeder feeder{queue, events, resume_from};
  std::uint64_t feed_position = resume_from;
  bool drained = false;
  while (!drained) {
    int in_batch = 0;
    const auto apply_started = std::chrono::steady_clock::now();
    while (in_batch < args->batch) {
      auto item = queue.pop();
      if (!item) {
        drained = true;
        break;
      }
      session->apply(item->event);
      feed_position = item->seq + 1;
      ++in_batch;
    }
    apply_ms += ms_since(apply_started);
    if (in_batch == 0) break;

    const auto publish_started = std::chrono::steady_clock::now();
    const io::Snapshot& snapshot = session->publish(++built);
    publish_ms += ms_since(publish_started);
    if (flight.armed()) {
      // One refresh per published epoch: the black box always carries the
      // epoch being served plus whatever the log/trace rings saw since.
      flight.set_epoch(session->epoch());
      flight.refresh();
    }

    if (args->verify) {
      const std::string incremental = io::to_snapshot_bytes(snapshot);
      const std::string reference =
          io::to_snapshot_bytes(session->reference_snapshot(built));
      if (incremental != reference) {
        std::fprintf(stderr,
                     "VERIFY FAILED: epoch %llu diverged from the "
                     "from-scratch rebuild at feed position %llu\n",
                     static_cast<unsigned long long>(session->epoch()),
                     static_cast<unsigned long long>(feed_position));
        return 1;
      }
      std::fprintf(stderr, "epoch %llu verified (%zu bytes)\n",
                   static_cast<unsigned long long>(session->epoch()),
                   incremental.size());
    }
    if (args->watchdog_every > 0 &&
        session->epoch() % static_cast<std::uint64_t>(args->watchdog_every) ==
            0) {
      const auto report = session->run_watchdog();
      if (report.diverged) {
        std::fprintf(stderr,
                     "watchdog: divergence in section '%s' at epoch %llu "
                     "(%s)\n",
                     report.first_diff_section.c_str(),
                     static_cast<unsigned long long>(session->epoch()),
                     report.healed ? "healed" : "NOT healed");
      }
    }
    if (checkpoint_dir &&
        ++epochs_since_checkpoint >=
            static_cast<std::uint64_t>(args->checkpoint_every)) {
      std::string error;
      if (checkpoint_dir->save(session->checkpoint(feed_position), &error)) {
        epochs_since_checkpoint = 0;
      } else {
        std::fprintf(stderr, "warning: checkpoint write failed: %s\n",
                     error.c_str());
      }
    }
  }
  if (checkpoint_dir) {
    // Graceful drain: persist the final state so a restart resumes past
    // the end of the feed instead of replaying the tail.
    std::string error;
    if (!checkpoint_dir->save(session->checkpoint(feed_position), &error)) {
      std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                   error.c_str());
    }
  }

  const auto& stats = session->stats();
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
    std::string error;
    if (!io::save_flat_snapshot_file(session->snapshot(), args->save,
                                     &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "final snapshot (epoch %llu) saved to %s\n",
                 static_cast<unsigned long long>(session->epoch()),
                 args->save.c_str());
  }
  if (args->verify) std::fprintf(stderr, "all epochs verified\n");
  return 0;
}
