// The streaming pipeline's contract, enforced three ways:
//   * metamorphic — after ANY seeded churn sequence, the incrementally
//     maintained snapshot is byte-identical to a from-scratch rebuild of
//     the same final world, at every published epoch, serial and threaded;
//   * structural — no-op events, add-then-remove pairs, and prefix churn
//     leave no residue in the published bytes;
//   * chaos — a torn snapshot write mid-publication never regresses or
//     corrupts the served epoch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/fault_inject.hpp"
#include "serve/query_engine.hpp"
#include "stream/churn.hpp"
#include "stream/session.hpp"

namespace asrel {
namespace {

core::ScenarioParams stream_params(unsigned threads) {
  core::ScenarioParams params;
  params.topology.as_count = 600;
  params.topology.seed = 11;
  params.vantage.target_count = 40;
  params.threads = threads;
  return params;
}

// ------------------------------------------------------------- churn model

TEST(Stream, ChurnTextRoundTrips) {
  const auto params = stream_params(1);
  const topo::World world = topo::generate(params.topology);
  const auto events = stream::generate_churn(world, 7, 50);
  ASSERT_EQ(events.size(), 50u);

  const std::string text = stream::to_churn_text(events);
  std::string error;
  const auto parsed = stream::parse_churn_text(text, &error);
  ASSERT_EQ(parsed.size(), events.size()) << error;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(parsed[i].a, events[i].a) << "event " << i;
    if (events[i].kind != stream::ChurnKind::kPrefixAnnounce &&
        events[i].kind != stream::ChurnKind::kPrefixWithdraw) {
      EXPECT_EQ(parsed[i].b, events[i].b) << "event " << i;
    }
    EXPECT_EQ(parsed[i].rel, events[i].rel) << "event " << i;
    EXPECT_EQ(parsed[i].scope, events[i].scope) << "event " << i;
    EXPECT_EQ(parsed[i].via_community, events[i].via_community)
        << "event " << i;
    EXPECT_EQ(parsed[i].prefix_host, events[i].prefix_host) << "event " << i;
  }

  // Same seed reproduces the identical sequence; a different seed diverges.
  EXPECT_EQ(stream::to_churn_text(stream::generate_churn(world, 7, 50)),
            text);
  EXPECT_NE(stream::to_churn_text(stream::generate_churn(world, 8, 50)),
            text);
}

TEST(Stream, ParserRejectsMalformedLines) {
  std::string error;
  EXPECT_TRUE(stream::parse_churn_text("frobnicate 1 2", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(stream::parse_churn_text("add 1 2 p2x", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(stream::parse_churn_text("remove 1", &error).empty());
  EXPECT_FALSE(error.empty());
  // Comments and blank lines are fine.
  const auto ok = stream::parse_churn_text(
      "# header\n\nadd 100 200 p2p  # trailing\n", &error);
  ASSERT_EQ(ok.size(), 1u) << error;
  EXPECT_EQ(ok[0].kind, stream::ChurnKind::kLinkAdd);
}

TEST(Stream, ParserDiagnosticsNameTheLineAndContent) {
  std::string error;
  // The failure names the 1-based line number and quotes the offender.
  EXPECT_TRUE(stream::parse_churn_text(
                  "# header\nadd 1 2 p2p\nremove 7\n", &error)
                  .empty());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("remove 7"), std::string::npos) << error;

  // Truncated lines (missing fields) are malformed, not zero-filled.
  EXPECT_TRUE(stream::parse_churn_text("add 1 2", &error).empty());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_TRUE(stream::parse_churn_text("scope 1 2 full", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(stream::parse_churn_text("announce 1", &error).empty());
  EXPECT_FALSE(error.empty());
  // Out-of-range and non-numeric ASNs are rejected, not wrapped.
  EXPECT_TRUE(
      stream::parse_churn_text("add 99999999999 2 p2p", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(stream::parse_churn_text("add one 2 p2p", &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST(Stream, ParserToleratesCrlfAndTabs) {
  std::string error;
  // CRLF framing and tab separators are accepted (operational feeds).
  const auto events = stream::parse_churn_text(
      "add 100 200 p2p\r\nremove\t100\t200\r\n", &error);
  ASSERT_EQ(events.size(), 2u) << error;
  EXPECT_EQ(events[0].kind, stream::ChurnKind::kLinkAdd);
  EXPECT_EQ(events[1].kind, stream::ChurnKind::kLinkRemove);
  // A '\r' inside a field is content, not framing.
  EXPECT_TRUE(stream::parse_churn_text("add 100\r200 p2p\n", &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST(Stream, StructuralNoOpsAreRejected) {
  const auto params = stream_params(1);
  topo::World world = topo::generate(params.topology);
  const auto nodes = world.graph.nodes();
  ASSERT_GE(nodes.size(), 2u);

  // Unknown ASN: never mutates (the node universe is fixed).
  stream::ChurnEvent unknown;
  unknown.kind = stream::ChurnKind::kLinkAdd;
  unknown.a = asn::Asn{4200000000u};
  unknown.b = nodes[0];
  EXPECT_FALSE(stream::apply_churn_event(world, unknown).applied);

  // Removing a link that does not exist.
  stream::ChurnEvent remove;
  remove.kind = stream::ChurnKind::kLinkRemove;
  remove.a = nodes[0];
  remove.b = nodes[0];
  EXPECT_FALSE(stream::apply_churn_event(world, remove).applied);
}

// ------------------------------------------- the byte-equality invariant

void run_metamorphic(unsigned threads, std::uint64_t seed) {
  auto params = stream_params(threads);
  stream::StreamSession session{params};
  const auto events = stream::generate_churn(session.world(), seed, 100);
  ASSERT_EQ(events.size(), 100u);

  // Epoch 1 (pre-churn) must already match a from-scratch build.
  ASSERT_EQ(io::to_snapshot_bytes(session.snapshot()),
            io::to_snapshot_bytes(session.reference_snapshot(0)))
      << "seed " << seed << " diverged at bootstrap";

  std::size_t applied = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    applied += session.apply(events[i]).applied ? 1 : 0;
    if ((i + 1) % 20 != 0) continue;
    const std::uint64_t built = 1754600000000ull + i;
    const std::string incremental =
        io::to_snapshot_bytes(session.publish(built));
    const std::string reference =
        io::to_snapshot_bytes(session.reference_snapshot(built));
    ASSERT_EQ(incremental, reference)
        << "seed " << seed << " diverged after event " << i + 1 << " (epoch "
        << session.epoch() << ")";
  }
  // The generated mix must actually exercise the pipeline: mostly applied
  // events with some origins re-propagated and some proven clean.
  EXPECT_GT(applied, events.size() / 2) << "seed " << seed;
  EXPECT_GT(session.stats().origins_redone, 0u) << "seed " << seed;
  EXPECT_GT(session.stats().origins_skipped, 0u) << "seed " << seed;
  EXPECT_EQ(session.stats().epochs_published, 5u);
  EXPECT_EQ(session.epoch(), 6u);
}

TEST(Stream, IncrementalMatchesFullRebuildSeed1) { run_metamorphic(1, 1); }
TEST(Stream, IncrementalMatchesFullRebuildSeed2) { run_metamorphic(1, 2); }
TEST(Stream, IncrementalMatchesFullRebuildSeed3) { run_metamorphic(1, 3); }
TEST(Stream, IncrementalMatchesFullRebuildThreaded) {
  run_metamorphic(2, 1);
}

TEST(Stream, AddThenRemoveLeavesNoResidue) {
  const auto params = stream_params(1);
  stream::StreamSession churned{params};
  stream::StreamSession pristine{params};

  // A link that does not exist yet, between two well-connected ASes.
  const auto nodes = churned.world().graph.nodes();
  std::optional<std::pair<asn::Asn, asn::Asn>> pair;
  for (std::size_t i = 0; i < nodes.size() && !pair; ++i) {
    for (std::size_t j = i + 1; j < nodes.size() && !pair; ++j) {
      if (!churned.world().graph.find_edge(nodes[i], nodes[j])) {
        pair = {nodes[i], nodes[j]};
      }
    }
  }
  ASSERT_TRUE(pair.has_value());

  stream::ChurnEvent add;
  add.kind = stream::ChurnKind::kLinkAdd;
  add.a = pair->first;
  add.b = pair->second;
  add.rel = topo::RelType::kP2C;
  EXPECT_TRUE(churned.apply(add).applied);
  stream::ChurnEvent remove;
  remove.kind = stream::ChurnKind::kLinkRemove;
  remove.a = pair->first;
  remove.b = pair->second;
  EXPECT_TRUE(churned.apply(remove).applied);

  // The tombstoned edge must be invisible: same bytes as a session that
  // never saw the pair.
  EXPECT_EQ(io::to_snapshot_bytes(churned.publish(99)),
            io::to_snapshot_bytes(pristine.publish(99)));
}

TEST(Stream, PrefixChurnIsAPipelineNoOp) {
  const auto params = stream_params(1);
  stream::StreamSession session{params};
  const auto nodes = session.world().graph.nodes();

  stream::ChurnEvent announce;
  announce.kind = stream::ChurnKind::kPrefixAnnounce;
  announce.a = nodes[0];
  announce.prefix_host = 17;
  const auto outcome = session.apply(announce);
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.dirty_origins, 0u);
  EXPECT_EQ(session.stats().origins_redone, 0u);

  // Announce-then-withdraw round-trips the prefix map too.
  stream::ChurnEvent withdraw = announce;
  withdraw.kind = stream::ChurnKind::kPrefixWithdraw;
  EXPECT_TRUE(session.apply(withdraw).applied);
  EXPECT_FALSE(session.apply(withdraw).applied);  // now a no-op

  // Sequenced: publish() bumps the epoch the reference stamps.
  const std::string incremental = io::to_snapshot_bytes(session.publish(7));
  EXPECT_EQ(incremental, io::to_snapshot_bytes(session.reference_snapshot(7)));
}

TEST(Stream, PureP2pLinkAddMatchesTheReference) {
  const auto params = stream_params(1);
  stream::StreamSession session{params};

  // A fresh pure-P2P link: nobody's selected route used it, so only the
  // rib scan's offer checks can mark an origin dirty.
  const auto nodes = session.world().graph.nodes();
  std::optional<std::pair<asn::Asn, asn::Asn>> pair;
  for (std::size_t i = 0; i < nodes.size() && !pair; ++i) {
    for (std::size_t j = i + 1; j < nodes.size() && !pair; ++j) {
      if (!session.world().graph.find_edge(nodes[i], nodes[j])) {
        pair = {nodes[i], nodes[j]};
      }
    }
  }
  ASSERT_TRUE(pair.has_value());

  stream::ChurnEvent add;
  add.kind = stream::ChurnKind::kLinkAdd;
  add.a = pair->first;
  add.b = pair->second;
  add.rel = topo::RelType::kP2P;
  EXPECT_TRUE(session.apply(add).applied);

  // Sequenced: publish() bumps the epoch the reference stamps.
  const std::string incremental = io::to_snapshot_bytes(session.publish(31));
  EXPECT_EQ(incremental, io::to_snapshot_bytes(session.reference_snapshot(31)));
}

// ----------------------------------------------------------------- chaos

TEST(Stream, TornPublicationNeverRegressesTheServedEpoch) {
  auto params = stream_params(1);
  stream::StreamSession session{params};

  serve::EngineHub hub{
      std::make_shared<const serve::QueryEngine>(session.snapshot())};
  ASSERT_EQ(hub.epoch(), 1u);

  const auto events = stream::generate_churn(session.world(), 5, 30);
  const std::string path = ::testing::TempDir() + "/asrel_stream_chaos.bin";
  std::string error;
  ASSERT_TRUE(io::save_flat_snapshot_file(session.snapshot(), path, &error))
      << error;

  std::uint64_t last_epoch = hub.epoch();
  for (std::size_t i = 0; i < events.size(); ++i) {
    session.apply(events[i]);
    if ((i + 1) % 10 != 0) continue;
    const io::Snapshot& next = session.publish(1000 + i);

    // Fault window: the durable write dies mid-file. The crash-safe
    // tmp+rename protocol must leave the previous on-disk epoch intact...
    {
      serve::fault::FaultPlan plan;
      plan.seed = 0xC0FFEEull + i;
      plan.snapshot_write_cap = 64;
      serve::fault::ScopedFaults faults{plan};
      EXPECT_FALSE(io::save_flat_snapshot_file(next, path, &error));
    }
    auto on_disk = io::FlatView::open_file(path, &error);
    ASSERT_NE(on_disk, nullptr) << error;
    EXPECT_LT(on_disk->header().epoch, next.meta.epoch);

    // ...and the in-memory swap is atomic: the served epoch only moves
    // forward, and the engine it exposes parses as the published bytes.
    const auto result = hub.publish(next);
    ASSERT_TRUE(result.ok);
    EXPECT_GT(result.epoch, last_epoch);
    last_epoch = result.epoch;
    const auto engine = hub.current();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->meta().epoch, next.meta.epoch);

    // Once the fault clears, the durable write catches up.
    ASSERT_TRUE(io::save_flat_snapshot_file(next, path, &error)) << error;
    on_disk = io::FlatView::open_file(path, &error);
    ASSERT_NE(on_disk, nullptr) << error;
    EXPECT_EQ(on_disk->header().epoch, next.meta.epoch);
  }
  EXPECT_EQ(hub.stats().publishes, 3u);
  EXPECT_EQ(hub.epoch(), 4u);
}

}  // namespace
}  // namespace asrel
