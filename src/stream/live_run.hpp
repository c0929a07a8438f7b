// LiveRun: the live epoch loop asrel_serve and asrel_stream share, the
// one path from churn event to published epoch. It owns the session
// (recovered through the checkpoint ladder, or bootstrapped cold), the
// churn feed (a replay file, or events generated from the pristine world
// so a restart sees the feed the first run saw), the bounded queue and
// its feeder (started at the resume position), in-process recovery from
// a poisoned apply (restore, then replay the feed up to the failing
// event), the watchdog and checkpoint cadences, and the final checkpoint.
//
// A caller keeps when to run an epoch, what to stamp it with, and where
// its bytes go. One epoch is three calls: apply_batch(),
// session().publish(stamp), then after_publish(); so a server can hand
// the epoch to its hub before the watchdog runs, and republish if the
// watchdog healed it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "io/snapshot.hpp"
#include "stream/checkpoint.hpp"
#include "stream/churn.hpp"
#include "stream/ingest.hpp"
#include "stream/session.hpp"

namespace asrel::stream {

/// The live run's settings, each one a flag of asrel_serve and
/// asrel_stream. Out-of-range counts are clamped as the flags always were.
struct LiveConfig {
  core::ScenarioParams params;
  std::string replay;          ///< churn file to replay; empty: generate
  int events = 0;              ///< generated feed length
  std::uint64_t churn_seed = 1;
  int batch = 20;              ///< most events applied per epoch (>= 1)
  std::string checkpoint_dir;  ///< empty: no checkpoints, cold bootstrap
  int checkpoint_every = 5;    ///< publishes between checkpoints (>= 1)
  int watchdog_every = 0;      ///< audit epochs divisible by it; 0: off
  int queue_cap = 1024;        ///< (>= 1)
  QueuePolicy queue_policy = QueuePolicy::kBlock;
};

/// Parses a flag both tools spell alike (--churn-seed, --replay,
/// --checkpoint-dir, --checkpoint-every, --watchdog-every, --queue-cap)
/// into `config`. Returns false for any other flag.
bool parse_live_flag(std::string_view flag, const char* value,
                     LiveConfig& config);

class LiveRun {
 public:
  /// Loads the feed, recovers or bootstraps the session, and starts the
  /// feeder at the resume position. Throws std::runtime_error when the
  /// replay file cannot be read or parsed.
  explicit LiveRun(LiveConfig config);

  LiveRun(const LiveRun&) = delete;
  LiveRun& operator=(const LiveRun&) = delete;

  struct Batch {
    std::size_t events = 0;  ///< popped from the queue
    std::size_t redone = 0;  ///< origins re-converged, replays included
    bool restored = false;   ///< an apply poisoned the session
  };

  /// Pops up to `batch` events and applies them. With `wait`, blocks until
  /// the batch is full or the feed ends; otherwise takes only what is
  /// queued. A poisoned apply restores the session and replays the feed
  /// up to the failing event; a queued event that replay already applied
  /// is skipped when it pops.
  Batch apply_batch(bool wait);

  struct Cadence {
    /// ran == false: no audit was due (or the session had pending events).
    StreamSession::WatchdogReport watchdog;
    std::string checkpoint_error;  ///< set iff a due checkpoint failed
  };

  /// The cadences that follow a publish: the watchdog on epochs divisible
  /// by `watchdog_every`, a checkpoint every `checkpoint_every` publishes.
  /// A failed write is retried after the next publish.
  Cadence after_publish();

  /// Stops the feeder and writes the final checkpoint, so a restart
  /// resumes past everything applied here. Returns false (with `*error`
  /// filled) only when that write fails.
  bool finish(std::string* error = nullptr);

  /// True once the feeder has offered the whole feed and the queue is
  /// empty.
  [[nodiscard]] bool drained() const;

  struct Recovery {
    std::uint64_t resumed_epoch = 0;  ///< 0: cold bootstrap
    std::size_t checkpoints_rejected = 0;  ///< cumulative, restores too
    std::uint64_t in_process_restores = 0;
    std::string detail;  ///< the latest recovery's story
  };
  [[nodiscard]] const Recovery& recovery() const { return recovery_; }
  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return checkpoints_written_;
  }
  /// One past the highest sequence number applied: the feed position a
  /// checkpoint persists.
  [[nodiscard]] std::uint64_t applied_through() const {
    return applied_through_;
  }

  [[nodiscard]] StreamSession& session() { return *session_; }
  [[nodiscard]] const StreamSession& session() const { return *session_; }
  [[nodiscard]] const std::vector<ChurnEvent>& feed() const { return feed_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  /// The ladder when checkpointing, else a cold bootstrap.
  [[nodiscard]] RecoveryOutcome recover() const;
  void apply(const QueuedEvent& item, Batch& batch);

  LiveConfig config_;
  std::optional<CheckpointDir> checkpoints_;
  std::vector<ChurnEvent> feed_;
  std::unique_ptr<StreamSession> session_;
  Recovery recovery_;
  std::uint64_t applied_through_ = 0;
  /// Events [0, here) were applied by an in-process replay.
  std::uint64_t replayed_through_ = 0;
  std::uint64_t publishes_since_checkpoint_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  EventQueue queue_;
  /// Last member: destroyed first, closing the queue before it goes.
  std::optional<QueueFeeder> feeder_;
};

}  // namespace asrel::stream
