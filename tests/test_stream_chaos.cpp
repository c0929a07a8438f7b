// Stream resilience under injected faults (DESIGN.md §14):
//   * kill-point sweep — crash the pipeline mid-apply, mid-checkpoint, or
//     mid-publish; a restart from the newest valid checkpoint replays the
//     feed and publishes byte-identical epochs to a never-crashed run;
//   * torn checkpoints — a write that dies mid-file leaves the previous
//     checkpoint intact; a truncated or bit-flipped file is rejected and
//     the recovery ladder falls back (previous checkpoint, then cold);
//   * divergence watchdog — seeded silent corruption is detected within
//     one audit interval and self-healed, after which the byte-equality
//     oracle holds again;
//   * backpressured ingest — block/shed/coalesce saturation semantics,
//     drain-aware close(), and a feeder torn down mid-push.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "serve/fault_inject.hpp"
#include "stream/checkpoint.hpp"
#include "stream/churn.hpp"
#include "stream/ingest.hpp"
#include "stream/session.hpp"

namespace asrel {
namespace {

core::ScenarioParams chaos_params() {
  core::ScenarioParams params;
  params.topology.as_count = 600;
  params.topology.seed = 11;
  params.vantage.target_count = 40;
  params.threads = 1;
  return params;
}

/// One uninterrupted run: apply `events` in publish batches of
/// `batch`, stamping built == epoch, checkpointing after every publish.
struct GoldenRun {
  std::vector<std::string> epoch_bytes;  ///< bytes of epoch 2, 3, ...
  std::vector<stream::StreamCheckpoint> checkpoints;  ///< after each publish
};

GoldenRun run_golden(const core::ScenarioParams& params,
                     const std::vector<stream::ChurnEvent>& events,
                     std::size_t batch) {
  GoldenRun golden;
  stream::StreamSession session{params};
  std::uint64_t built = session.epoch();
  for (std::size_t i = 0; i < events.size();) {
    const std::size_t end = std::min(events.size(), i + batch);
    for (; i < end; ++i) session.apply(events[i]);
    golden.epoch_bytes.push_back(
        io::to_snapshot_bytes(session.publish(++built)));
    golden.checkpoints.push_back(session.checkpoint(i));
  }
  return golden;
}

/// Restart from `checkpoint` and replay the rest of the feed with the
/// same cadence; every published epoch must be byte-identical to the
/// golden run's.
void expect_resumed_run_matches(const core::ScenarioParams& params,
                                const stream::StreamCheckpoint& checkpoint,
                                const std::vector<stream::ChurnEvent>& events,
                                std::size_t batch, const GoldenRun& golden) {
  std::string error;
  auto session = stream::StreamSession::restore(params, checkpoint, &error);
  ASSERT_NE(session, nullptr) << error;
  ASSERT_EQ(session->epoch(), checkpoint.epoch);

  std::uint64_t built = session->epoch();
  for (std::size_t i = checkpoint.feed_position; i < events.size();) {
    const std::size_t end = std::min(events.size(), i + batch);
    for (; i < end; ++i) session->apply(events[i]);
    const std::string bytes = io::to_snapshot_bytes(session->publish(++built));
    const std::size_t epoch_index = static_cast<std::size_t>(built - 2);
    ASSERT_LT(epoch_index, golden.epoch_bytes.size());
    ASSERT_EQ(bytes, golden.epoch_bytes[epoch_index])
        << "epoch " << built << " diverged after restart from epoch "
        << checkpoint.epoch;
  }
}

// -------------------------------------------------- checkpoint wire format

TEST(StreamChaos, CheckpointRoundTripsThroughBytes) {
  const auto params = chaos_params();
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), 3, 20);
  for (const auto& event : events) session.apply(event);
  session.publish(2);

  const stream::StreamCheckpoint checkpoint = session.checkpoint(20);
  const std::string bytes = stream::to_checkpoint_bytes(checkpoint);
  std::string error;
  const auto parsed = stream::parse_checkpoint_bytes(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->epoch, checkpoint.epoch);
  EXPECT_EQ(parsed->feed_position, 20u);
  EXPECT_TRUE(parsed->fingerprint == checkpoint.fingerprint);
  // Canonical: accepted bytes re-encode identically (the fuzz oracle).
  EXPECT_EQ(stream::to_checkpoint_bytes(*parsed), bytes);
}

TEST(StreamChaos, RestoredSessionCheckpointsToTheSameBytes) {
  // Restore keeps everything a checkpoint holds, the prefix table of a
  // mid-epoch checkpoint included: checkpointing the restored session at
  // the same feed position gives the same bytes.
  const auto params = chaos_params();
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), 3, 20);
  for (std::size_t i = 0; i < 10; ++i) session.apply(events[i]);
  session.publish(2);
  for (std::size_t i = 10; i < events.size(); ++i) session.apply(events[i]);
  const stream::StreamCheckpoint checkpoint = session.checkpoint(20);
  ASSERT_FALSE(checkpoint.prefixes.empty());

  std::string error;
  const auto restored =
      stream::StreamSession::restore(params, checkpoint, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(stream::to_checkpoint_bytes(restored->checkpoint(20)),
            stream::to_checkpoint_bytes(checkpoint));
}

TEST(StreamChaos, RestoredMidEpochSessionIsClean) {
  // Restore builds the snapshot from the restored world, so a mid-epoch
  // checkpoint restores to a clean session: a publish with no new events
  // only restamps (the pipeline does not rerun), and its bytes equal the
  // never-crashed session's publish, which does rerun it.
  const auto params = chaos_params();
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), 3, 20);
  for (std::size_t i = 0; i < 10; ++i) session.apply(events[i]);
  session.publish(2);
  for (std::size_t i = 10; i < events.size(); ++i) session.apply(events[i]);
  std::string error;
  const auto restored =
      stream::StreamSession::restore(params, session.checkpoint(20), &error);
  ASSERT_NE(restored, nullptr) << error;

  const obs::Counter& sanitize_runs = obs::MetricsRegistry::global().counter(
      "asrel_stage_runs_total{stage=\"pipeline.sanitize\"}");
  const std::uint64_t before = sanitize_runs.value();
  const std::string bytes = io::to_snapshot_bytes(restored->publish(3));
  EXPECT_EQ(sanitize_runs.value(), before);
  EXPECT_EQ(bytes, io::to_snapshot_bytes(session.publish(3)));
  EXPECT_GT(sanitize_runs.value(), before);
}

TEST(StreamChaos, ParserRejectsTornAndCorruptBytes) {
  const auto params = chaos_params();
  stream::StreamSession session{params};
  session.publish(2);
  const std::string bytes =
      stream::to_checkpoint_bytes(session.checkpoint(0));

  std::string error;
  // Truncations at every coarse cut point: never accepted, never UB.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, std::size_t{27},
        bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(
        stream::parse_checkpoint_bytes(bytes.substr(0, cut), &error)
            .has_value())
        << "cut at " << cut;
    EXPECT_FALSE(error.empty());
  }
  // A flipped payload byte fails the checksum.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(stream::parse_checkpoint_bytes(flipped, &error).has_value());
  // Trailing garbage is rejected, not ignored.
  EXPECT_FALSE(
      stream::parse_checkpoint_bytes(bytes + "x", &error).has_value());
}

// ------------------------------------------------------- kill-point sweep

TEST(StreamChaos, RestartFromAnyCheckpointIsByteIdentical) {
  const auto params = chaos_params();
  const topo::World pristine = topo::generate(params.topology);
  const auto events = stream::generate_churn(pristine, 5, 60);
  const std::size_t batch = 20;
  const GoldenRun golden = run_golden(params, events, batch);
  ASSERT_EQ(golden.checkpoints.size(), 3u);

  // Crash immediately after each checkpoint (mid-publish of the next
  // epoch, before anything new was persisted): restart must replay the
  // tail and reproduce every remaining epoch byte-for-byte.
  for (const auto& checkpoint : golden.checkpoints) {
    expect_resumed_run_matches(params, checkpoint, events, batch, golden);
  }
}

TEST(StreamChaos, PoisonedApplyRefusesWorkAndRestoreRecovers) {
  const auto params = chaos_params();
  const topo::World pristine = topo::generate(params.topology);
  const auto events = stream::generate_churn(pristine, 5, 60);
  const GoldenRun golden = run_golden(params, events, 20);

  // Resume from the first checkpoint, then crash mid-apply: the injected
  // allocation failure fires before any mutation and poisons the session.
  std::string error;
  auto session = stream::StreamSession::restore(
      params, golden.checkpoints[0], &error);
  ASSERT_NE(session, nullptr) << error;
  {
    serve::fault::FaultPlan plan;
    plan.seed = 0xDEADull;
    plan.stream_apply_fail_permille = 1000;
    serve::fault::ScopedFaults faults{plan};
    EXPECT_THROW(session->apply(events[20]), std::bad_alloc);
  }
  EXPECT_TRUE(session->poisoned());
  EXPECT_THROW(session->publish(99), std::logic_error);
  EXPECT_THROW((void)session->checkpoint(0), std::logic_error);
  EXPECT_THROW(session->apply(events[20]), std::logic_error);
  EXPECT_FALSE(session->run_watchdog().ran);

  // The process-restart path: a fresh restore from the same checkpoint
  // replays the tail byte-identically.
  expect_resumed_run_matches(params, golden.checkpoints[0], events, 20,
                             golden);
}

// ------------------------------------------------------ the recovery ladder

TEST(StreamChaos, TornCheckpointWriteKeepsThePreviousFile) {
  const auto params = chaos_params();
  const topo::World pristine = topo::generate(params.topology);
  const auto events = stream::generate_churn(pristine, 5, 40);
  const GoldenRun golden = run_golden(params, events, 20);

  const std::string dir =
      ::testing::TempDir() + "/asrel_ckpt_torn_" +
      std::to_string(std::chrono::steady_clock::now()
                         .time_since_epoch()
                         .count());
  stream::CheckpointDir checkpoints{dir};
  std::string error;
  ASSERT_TRUE(checkpoints.save(golden.checkpoints[0], &error)) << error;
  ASSERT_EQ(checkpoints.candidates().size(), 1u);

  // The next checkpoint write dies after 64 bytes: the temp file must be
  // discarded and the epoch-2 checkpoint must survive untouched.
  {
    serve::fault::FaultPlan plan;
    plan.seed = 0xBEEFull;
    plan.checkpoint_write_cap = 64;
    serve::fault::ScopedFaults faults{plan};
    EXPECT_FALSE(checkpoints.save(golden.checkpoints[1], &error));
  }
  const auto candidates = checkpoints.candidates();
  ASSERT_EQ(candidates.size(), 1u);
  const auto survivor = stream::load_checkpoint_file(candidates[0], &error);
  ASSERT_TRUE(survivor.has_value()) << error;
  EXPECT_EQ(survivor->epoch, golden.checkpoints[0].epoch);

  // Recovery resumes from the surviving epoch, and the replay converges
  // on the same bytes the uncrashed run published.
  auto outcome = stream::recover_session(params, checkpoints);
  ASSERT_NE(outcome.session, nullptr);
  EXPECT_EQ(outcome.resumed_epoch, golden.checkpoints[0].epoch);
  EXPECT_EQ(outcome.checkpoints_rejected, 0u);
  expect_resumed_run_matches(params, golden.checkpoints[0], events, 20,
                             golden);
}

TEST(StreamChaos, RecoveryLadderFallsPastCorruptCheckpoints) {
  const auto params = chaos_params();
  const topo::World pristine = topo::generate(params.topology);
  const auto events = stream::generate_churn(pristine, 5, 40);
  const GoldenRun golden = run_golden(params, events, 20);

  const std::string dir =
      ::testing::TempDir() + "/asrel_ckpt_ladder_" +
      std::to_string(std::chrono::steady_clock::now()
                         .time_since_epoch()
                         .count());
  stream::CheckpointDir checkpoints{dir};
  std::string error;
  ASSERT_TRUE(checkpoints.save(golden.checkpoints[0], &error)) << error;
  ASSERT_TRUE(checkpoints.save(golden.checkpoints[1], &error)) << error;

  // Corrupt the newest file on disk (simulated torn write that somehow
  // landed): the ladder must reject it and restore the previous epoch.
  auto candidates = checkpoints.candidates();
  ASSERT_EQ(candidates.size(), 2u);
  {
    std::ofstream torn{candidates[0],
                       std::ios::binary | std::ios::trunc};
    torn << stream::to_checkpoint_bytes(golden.checkpoints[1]).substr(0, 40);
  }
  auto outcome = stream::recover_session(params, checkpoints);
  ASSERT_NE(outcome.session, nullptr);
  EXPECT_EQ(outcome.resumed_epoch, golden.checkpoints[0].epoch);
  EXPECT_EQ(outcome.checkpoints_rejected, 1u);
  EXPECT_NE(outcome.detail.find("restored epoch"), std::string::npos)
      << outcome.detail;

  // Corrupt both: the ladder bottoms out in a cold bootstrap that serves
  // epoch 1 — it never fabricates a resumed epoch.
  {
    std::ofstream torn{candidates[1],
                       std::ios::binary | std::ios::trunc};
    torn << "ASRELCKP garbage";
  }
  outcome = stream::recover_session(params, checkpoints);
  ASSERT_NE(outcome.session, nullptr);
  EXPECT_EQ(outcome.resumed_epoch, 0u);
  EXPECT_EQ(outcome.checkpoints_rejected, 2u);
  EXPECT_EQ(outcome.session->epoch(), 1u);
}

TEST(StreamChaos, RestoreRejectsForeignWorldsAndTornReads) {
  const auto params = chaos_params();
  stream::StreamSession session{params};
  session.publish(2);
  const stream::StreamCheckpoint checkpoint = session.checkpoint(0);

  // A checkpoint from a different world must not restore.
  auto other = params;
  other.topology.seed = 12;
  std::string error;
  EXPECT_EQ(stream::StreamSession::restore(other, checkpoint, &error),
            nullptr);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  // Transit bits the restored world's audit does not reproduce are refused.
  ASSERT_FALSE(checkpoint.transit_asns.empty());
  stream::StreamCheckpoint stale_bits = checkpoint;
  stale_bits.transit_asns.pop_back();
  EXPECT_EQ(stream::StreamSession::restore(params, stale_bits, &error),
            nullptr);
  EXPECT_NE(error.find("transit bits"), std::string::npos) << error;

  // A read that tears mid-file (injected cap) is rejected at the header.
  const std::string path = ::testing::TempDir() + "/asrel_ckpt_read.ckpt";
  ASSERT_TRUE(stream::save_checkpoint_file(checkpoint, path, &error))
      << error;
  {
    serve::fault::FaultPlan plan;
    plan.seed = 0xFEEDull;
    plan.checkpoint_read_cap = 100;
    serve::fault::ScopedFaults faults{plan};
    EXPECT_FALSE(stream::load_checkpoint_file(path, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  EXPECT_TRUE(stream::load_checkpoint_file(path, &error).has_value())
      << error;
}

// ------------------------------------------------------------- watchdog

TEST(StreamChaos, WatchdogDetectsSeededDivergenceAndHeals) {
  const auto params = chaos_params();
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), 5, 20);
  for (const auto& event : events) session.apply(event);

  // A clean publish passes the audit.
  session.publish(2);
  auto report = session.run_watchdog();
  EXPECT_TRUE(report.ran);
  EXPECT_FALSE(report.diverged);

  // Seed silent corruption inside the next publish: the same publication
  // serves the diverged bytes, so the audit one interval later must flag
  // and heal it.
  {
    serve::fault::FaultPlan plan;
    plan.seed = 0xD17ull;
    plan.stream_divergence_permille = 1000;
    serve::fault::ScopedFaults faults{plan};
    session.publish(3);
  }
  report = session.run_watchdog();
  EXPECT_TRUE(report.ran);
  EXPECT_TRUE(report.diverged);
  EXPECT_TRUE(report.healed);
  EXPECT_FALSE(report.first_diff_section.empty());
  EXPECT_EQ(session.stats().divergences, 1u);
  EXPECT_EQ(session.stats().heals, 1u);

  // Healed in place: same epoch, same stamp, bytes re-satisfy the oracle.
  EXPECT_EQ(session.snapshot().meta.epoch, session.epoch());
  EXPECT_EQ(io::to_snapshot_bytes(session.snapshot()),
            io::to_snapshot_bytes(session.reference_snapshot(3)));

  // And the session keeps streaming correctly after the heal.
  const auto more = stream::generate_churn(session.world(), 9, 10);
  for (const auto& event : more) session.apply(event);
  // Sequenced: publish() bumps the epoch the reference stamps.
  const std::string incremental = io::to_snapshot_bytes(session.publish(4));
  EXPECT_EQ(incremental, io::to_snapshot_bytes(session.reference_snapshot(4)));
}

TEST(StreamChaos, EdgeEventsRightAfterRestoreMatchTheReference) {
  // The propagator's adjacency is rebuilt from the restored edge table,
  // then again after each event: a heal straight after restore and one
  // event of every edge kind must all publish the reference's bytes.
  const auto params = chaos_params();
  stream::StreamSession golden{params};
  const auto events = stream::generate_churn(golden.world(), 5, 20);
  for (const auto& event : events) golden.apply(event);
  golden.publish(2);
  std::string error;
  auto session = stream::StreamSession::restore(
      params, golden.checkpoint(events.size()), &error);
  ASSERT_NE(session, nullptr) << error;
  {
    serve::fault::FaultPlan plan;
    plan.seed = 0xAD1ull;
    plan.stream_divergence_permille = 1000;
    serve::fault::ScopedFaults faults{plan};
    session->publish(3);
  }
  ASSERT_TRUE(session->run_watchdog().healed);

  const auto& graph = session->world().graph;
  std::vector<topo::EdgeId> p2c;
  std::vector<topo::EdgeId> p2p;
  for (topo::EdgeId id = 0; id < graph.edge_count(); ++id) {
    const topo::Edge& edge = graph.edge(id);
    if (edge.removed || edge.is_hybrid()) continue;
    if (edge.rel == topo::RelType::kP2P) p2p.push_back(id);
    if (edge.rel == topo::RelType::kP2C &&
        edge.scope == topo::ExportScope::kFull) {
      p2c.push_back(id);
    }
  }
  ASSERT_GE(p2c.size(), 2u);
  ASSERT_FALSE(p2p.empty());
  const auto asn = [&](topo::NodeId node) { return graph.asn_of(node); };
  topo::NodeId stranger = 1;
  while (graph.find_edge(asn(0), asn(stranger))) ++stranger;
  const topo::Edge& flip = graph.edge(p2c[0]);
  const topo::Edge& scope = graph.edge(p2c[1]);
  const topo::Edge& cut = graph.edge(p2p[0]);
  const std::vector<stream::ChurnEvent> edits{
      {.kind = stream::ChurnKind::kLinkAdd,
       .a = asn(0),
       .b = asn(stranger),
       .rel = topo::RelType::kP2C},
      {.kind = stream::ChurnKind::kLinkRemove, .a = asn(cut.u),
       .b = asn(cut.v)},
      {.kind = stream::ChurnKind::kRelFlip,
       .a = asn(flip.u),
       .b = asn(flip.v),
       .rel = topo::RelType::kP2P},
      {.kind = stream::ChurnKind::kScopeFlip,
       .a = asn(scope.u),
       .b = asn(scope.v),
       .scope = topo::ExportScope::kCustomersOnly,
       .via_community = true},
  };
  std::uint64_t built = 3;
  for (const auto& edit : edits) {
    ASSERT_TRUE(session->apply(edit).applied) << to_string(edit.kind);
    const std::string bytes = io::to_snapshot_bytes(session->publish(++built));
    EXPECT_EQ(bytes,
              io::to_snapshot_bytes(session->reference_snapshot(built)))
        << "after " << to_string(edit.kind);
  }
}

TEST(StreamChaos, WatchdogSkipsWhileEventsArePending) {
  const auto params = chaos_params();
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), 5, 20);
  std::size_t dirtied = 0;
  for (const auto& event : events) {
    if (session.apply(event).dirty_origins > 0) {
      ++dirtied;
      break;
    }
  }
  ASSERT_GT(dirtied, 0u);
  // Unpublished changes make a maintained-vs-reference mismatch
  // legitimate; the watchdog must not cry wolf (or heal away the delta).
  EXPECT_FALSE(session.run_watchdog().ran);
  session.publish(2);
  EXPECT_TRUE(session.run_watchdog().ran);
}

// ------------------------------------------------------ backpressured ingest

stream::ChurnEvent link_event(stream::ChurnKind kind, std::uint32_t a,
                              std::uint32_t b) {
  stream::ChurnEvent event;
  event.kind = kind;
  event.a = asn::Asn{a};
  event.b = asn::Asn{b};
  return event;
}

TEST(StreamChaos, QueueShedPolicyDropsAtSaturation) {
  stream::EventQueue queue{2, stream::QueuePolicy::kShed};
  EXPECT_TRUE(queue.push({0, link_event(stream::ChurnKind::kLinkAdd, 1, 2)}));
  EXPECT_TRUE(queue.push({1, link_event(stream::ChurnKind::kLinkAdd, 3, 4)}));
  EXPECT_FALSE(
      queue.push({2, link_event(stream::ChurnKind::kLinkAdd, 5, 6)}));
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.depth(), 2u);
  // Draining frees space again.
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.push({3, link_event(stream::ChurnKind::kLinkAdd, 5, 6)}));
}

TEST(StreamChaos, QueueCoalescePolicyKeepsNewestIntent) {
  stream::EventQueue queue{2, stream::QueuePolicy::kCoalesce};
  ASSERT_TRUE(
      queue.push({0, link_event(stream::ChurnKind::kLinkAdd, 1, 2)}));
  ASSERT_TRUE(
      queue.push({1, link_event(stream::ChurnKind::kLinkAdd, 3, 4)}));
  // Saturated: the same unordered pair (reversed endpoints, different
  // verb) replaces the queued event in place.
  EXPECT_TRUE(
      queue.push({2, link_event(stream::ChurnKind::kLinkRemove, 4, 3)}));
  EXPECT_EQ(queue.stats().coalesced, 1u);
  EXPECT_EQ(queue.depth(), 2u);
  // No queued partner: shed.
  EXPECT_FALSE(
      queue.push({3, link_event(stream::ChurnKind::kLinkAdd, 9, 10)}));
  EXPECT_EQ(queue.stats().shed, 1u);

  auto first = queue.pop();
  auto second = queue.pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 0u);
  EXPECT_EQ(second->seq, 2u);  // the coalesced replacement
  EXPECT_EQ(second->event.kind, stream::ChurnKind::kLinkRemove);
}

TEST(StreamChaos, QueueBlockPolicyWaitsForSpace) {
  stream::EventQueue queue{1, stream::QueuePolicy::kBlock};
  ASSERT_TRUE(
      queue.push({0, link_event(stream::ChurnKind::kLinkAdd, 1, 2)}));
  std::thread consumer{[&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)queue.pop();
  }};
  // Saturated: this push must wait until the consumer frees a slot, not
  // shed.
  EXPECT_TRUE(
      queue.push({1, link_event(stream::ChurnKind::kLinkAdd, 3, 4)}));
  consumer.join();
  EXPECT_EQ(queue.stats().blocked, 1u);
  EXPECT_EQ(queue.stats().shed, 0u);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(StreamChaos, QueueCloseDrainsInsteadOfDropping) {
  stream::EventQueue queue{4, stream::QueuePolicy::kBlock};
  ASSERT_TRUE(
      queue.push({0, link_event(stream::ChurnKind::kLinkAdd, 1, 2)}));
  ASSERT_TRUE(
      queue.push({1, link_event(stream::ChurnKind::kLinkAdd, 3, 4)}));
  queue.close();
  // Intake stops...
  EXPECT_FALSE(
      queue.push({2, link_event(stream::ChurnKind::kLinkAdd, 5, 6)}));
  // ...but the backlog remains poppable, then pop reports exhaustion.
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(StreamChaos, FeederDestructorReleasesABlockedPush) {
  const std::vector<stream::ChurnEvent> events(
      8, link_event(stream::ChurnKind::kLinkAdd, 1, 2));
  stream::EventQueue queue{1, stream::QueuePolicy::kBlock};
  {
    const stream::QueueFeeder feeder{queue, events, 0};
    while (queue.stats().blocked == 0) std::this_thread::yield();
    EXPECT_FALSE(feeder.done());
  }  // nobody pops: only the destructor's close() lets the push return
  EXPECT_EQ(queue.stats().pushed, 1u);
  EXPECT_EQ(queue.stats().shed, 1u);  // the in-flight push, not the rest
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(StreamChaos, FeederKeepsOfferingPastKShedSaturation) {
  const std::vector<stream::ChurnEvent> events(
      8, link_event(stream::ChurnKind::kLinkAdd, 1, 2));
  stream::EventQueue queue{1, stream::QueuePolicy::kShed};
  const stream::QueueFeeder feeder{queue, events, 0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!feeder.done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(feeder.done());
  // Nobody pops: the first event fills the queue and the other seven are
  // saturation drops, each offered and counted, not a stop.
  EXPECT_EQ(queue.stats().pushed, 1u);
  EXPECT_EQ(queue.stats().shed, 7u);
}

}  // namespace
}  // namespace asrel
