// stream::LiveRun, the epoch loop asrel_serve and asrel_stream share:
//   * a poisoned apply restores the newest checkpoint, replays the feed up
//     to the failing event, and the next epoch is the never-crashed one;
//   * checkpoints land every N publishes, plus one on finish();
//   * a resumed run starts its feeder at the checkpoint's feed position.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "serve/fault_inject.hpp"
#include "stream/checkpoint.hpp"
#include "stream/live_run.hpp"

namespace asrel {
namespace {

std::string temp_dir(const std::string& name) {
  return ::testing::TempDir() + "/asrel_live_" + name + "_" +
         std::to_string(
             std::chrono::steady_clock::now().time_since_epoch().count());
}

stream::LiveConfig live_config(int events, int batch) {
  stream::LiveConfig config;
  config.params.topology.as_count = 600;
  config.params.topology.seed = 11;
  config.params.vantage.target_count = 40;
  config.params.threads = 1;
  config.events = events;
  config.churn_seed = 5;
  config.batch = batch;
  return config;
}

/// One epoch as asrel_stream runs it: a full batch, stamped built ==
/// epoch, then the cadences. Returns the published bytes, or "" once the
/// feed is exhausted.
std::string run_epoch(stream::LiveRun& run) {
  if (run.apply_batch(/*wait=*/true).events == 0) return {};
  stream::StreamSession& session = run.session();
  const std::string bytes =
      io::to_snapshot_bytes(session.publish(session.epoch() + 1));
  run.after_publish();
  return bytes;
}

std::vector<std::string> run_to_end(stream::LiveRun& run) {
  std::vector<std::string> epochs;
  for (std::string bytes = run_epoch(run); !bytes.empty();
       bytes = run_epoch(run)) {
    epochs.push_back(std::move(bytes));
  }
  return epochs;
}

/// Every epoch of an uninterrupted run without checkpoints.
std::vector<std::string> never_crashed(int events, int batch) {
  stream::LiveRun run{live_config(events, batch)};
  return run_to_end(run);
}

/// A fault-plan seed under which, of the first `draws` apply draws, only
/// draw `fail_at` falls below `permille`.
std::uint64_t seed_failing_only(std::uint64_t fail_at, std::uint64_t draws,
                                std::uint32_t permille) {
  using serve::fault::FaultInjector;
  using serve::fault::Site;
  for (std::uint64_t seed = 1;; ++seed) {
    bool matches = true;
    for (std::uint64_t n = 0; n < draws && matches; ++n) {
      const bool fails =
          FaultInjector::draw(seed, Site::kStreamApply, n) < permille;
      matches = fails == (n == fail_at);
    }
    if (matches) return seed;
  }
}

TEST(LiveRun, PoisonedApplyRestoresAndReplaysToTheFailingEvent) {
  auto config = live_config(20, 5);
  config.checkpoint_dir = temp_dir("poison");
  config.checkpoint_every = 2;
  stream::LiveRun run{config};
  // Events [0, 10) in two epochs; the second checkpoints epoch 3 at 10.
  ASSERT_FALSE(run_epoch(run).empty());
  ASSERT_FALSE(run_epoch(run).empty());
  ASSERT_EQ(run.checkpoints_written(), 1u);

  // The next batch is events 10..14. Their first four applies pass, the
  // fifth (event 14) poisons the session, and the five replayed applies
  // (10..14 again, from the checkpoint) pass.
  serve::fault::FaultPlan plan;
  plan.stream_apply_fail_permille = 100;
  plan.seed = seed_failing_only(4, 10, plan.stream_apply_fail_permille);
  stream::LiveRun::Batch batch;
  {
    serve::fault::ScopedFaults faults{plan};
    batch = run.apply_batch(/*wait=*/true);
    EXPECT_EQ(serve::fault::FaultInjector::instance()
                  .stats()
                  .stream_apply_faults,
              1u);
  }
  EXPECT_EQ(batch.events, 5u);
  EXPECT_TRUE(batch.restored);
  EXPECT_EQ(run.applied_through(), 14u + 1);
  EXPECT_EQ(run.recovery().in_process_restores, 1u);
  EXPECT_NE(run.recovery().detail.find("restored epoch 3"),
            std::string::npos)
      << run.recovery().detail;
  EXPECT_FALSE(run.session().poisoned());

  const std::uint64_t built = run.session().epoch() + 1;
  const std::string bytes =
      io::to_snapshot_bytes(run.session().publish(built));
  EXPECT_EQ(bytes,
            io::to_snapshot_bytes(run.session().reference_snapshot(built)));
  // The replay re-applied 10..13, which the restore dropped: the epoch is
  // the never-crashed run's third.
  EXPECT_EQ(bytes, never_crashed(20, 5).at(2));
}

TEST(LiveRun, CheckpointsEveryNPublishesAndOnFinish) {
  auto config = live_config(23, 5);
  config.checkpoint_dir = temp_dir("cadence");
  config.checkpoint_every = 2;
  stream::LiveRun run{config};
  std::vector<std::uint64_t> written;
  while (!run_epoch(run).empty()) {
    written.push_back(run.checkpoints_written());
  }
  // Five epochs (5+5+5+5+3 events): checkpoints after the second and the
  // fourth.
  EXPECT_EQ(written, (std::vector<std::uint64_t>{0, 1, 1, 2, 2}));
  std::string error;
  ASSERT_TRUE(run.finish(&error)) << error;
  EXPECT_EQ(run.checkpoints_written(), 3u);

  // The directory keeps the newest two: epoch 5 at feed position 20, and
  // the final one, epoch 6 at the end of the feed.
  const auto candidates = stream::CheckpointDir{config.checkpoint_dir}
                              .candidates();
  ASSERT_EQ(candidates.size(), 2u);
  const auto newest = stream::load_checkpoint_file(candidates[0], &error);
  ASSERT_TRUE(newest.has_value()) << error;
  const auto previous = stream::load_checkpoint_file(candidates[1], &error);
  ASSERT_TRUE(previous.has_value()) << error;
  EXPECT_EQ(newest->epoch, 6u);
  EXPECT_EQ(newest->feed_position, 23u);
  EXPECT_EQ(previous->epoch, 5u);
  EXPECT_EQ(previous->feed_position, 20u);
}

TEST(LiveRun, ResumedRunSkipsWhatTheCheckpointReflects) {
  auto config = live_config(20, 5);
  config.checkpoint_dir = temp_dir("resume");
  config.checkpoint_every = 1;
  {
    stream::LiveRun first{config};
    ASSERT_FALSE(run_epoch(first).empty());
    ASSERT_FALSE(run_epoch(first).empty());
  }  // gone without finish(): the newest checkpoint is epoch 3 at 10

  stream::LiveRun resumed{config};
  EXPECT_EQ(resumed.recovery().resumed_epoch, 3u);
  EXPECT_EQ(resumed.applied_through(), 10u);
  const auto epochs = run_to_end(resumed);
  // Sequence numbers below 10 never reach the queue.
  EXPECT_EQ(resumed.queue().stats().pushed, 10u);
  EXPECT_EQ(resumed.applied_through(), 20u);
  const auto golden = never_crashed(20, 5);
  ASSERT_EQ(epochs.size(), 2u);
  ASSERT_EQ(golden.size(), 4u);
  EXPECT_EQ(epochs[0], golden[2]);
  EXPECT_EQ(epochs[1], golden[3]);
}

}  // namespace
}  // namespace asrel
